"""Pinned outcomes of seeded exact searches.

Each case fixes an instance, an optional greedy warm start and a node budget,
and pins the (status, makespan, swaps, nodes) the search returned when the
values were recorded. A change to the solver's internals must leave all of
them as they are; a change that means to move them must say so.
"""

from hashlib import sha1

import pytest

from qcsched.cpsolver import build_model, search
from qcsched.instance import build_grid_chip, build_preset_chip, \
    generate_instance
from qcsched.router import solve_greedy

CASES = [
    # (chip, goals, variant, stages, seed, warm, node budget), expected
    (("rigetti-8", 2, "qcc", 1, 15, True, 5000), ("optimal", 8, 3, 1133)),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), ("optimal", 9, 1, 3751)),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), ("optimal", 7, 0, 1680)),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000), ("timeout", 33, 47, 3000)),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), ("optimal", 7, 1, 7862)),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), ("optimal", 8, 1, 38)),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), ("timeout", None, None, 3000)),
    (("grid:3", 2, "qcc-x", 2, 16, True, 3000), ("timeout", 20, 3, 3000)),
]


def _search(case):
    chip_name, goals, variant, stages, seed, warm, budget = case
    chip = build_grid_chip(3) if chip_name == "grid:3" \
        else build_preset_chip(chip_name)
    instance = generate_instance(chip, goals, stages=stages, variant=variant,
                                 seed=seed)
    incumbent = solve_greedy(instance, seed=seed) if warm else None
    return search(build_model(instance), incumbent, node_budget=budget)


@pytest.mark.parametrize("case,expected", CASES,
                         ids=["-".join(map(str, c[:6])) for c, _ in CASES])
def test_search_outcome_is_pinned(case, expected):
    result = _search(case)
    best = result.best
    assert (result.status,
            best.makespan if best else None,
            best.swap_count if best else None,
            result.nodes) == expected


# Each case above plus two rigetti-21 searches, pinned to the incumbent trace
# [(makespan, swaps, nodes)] and the leading hex digits of
# sha1(repr(best.tasks)). A warm start is not in the trace; only the
# schedules the search itself finds are.
TRACE_CASES = [
    # (chip, goals, variant, stages, seed, warm, node budget), best hash,
    # incumbent trace
    (("rigetti-8", 2, "qcc", 1, 15, True, 5000), "f7ab13f03ac69084",
     [(8, 12, 8), (8, 11, 10), (8, 10, 13), (8, 9, 25), (8, 8, 35), (8, 7, 54),
      (8, 6, 99), (8, 5, 188), (8, 4, 332), (8, 3, 831)]),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), "bf2fe72682e1b0fa",
     [(30, 25, 907), (30, 24, 909), (30, 23, 918), (30, 22, 956),
      (30, 21, 1087), (29, 24, 1248), (29, 23, 1250), (29, 22, 1252),
      (29, 21, 1271), (29, 20, 1324), (26, 21, 1355), (26, 20, 1357),
      (26, 19, 1366), (25, 20, 1385), (25, 19, 1387), (25, 18, 1395),
      (25, 17, 1429), (23, 18, 1454), (23, 17, 1456), (23, 16, 1458),
      (23, 15, 1466), (22, 17, 1486), (22, 16, 1488), (22, 15, 1490),
      (22, 14, 1498), (21, 16, 1518), (21, 15, 1520), (21, 14, 1522),
      (21, 13, 1530), (20, 15, 1550), (20, 14, 1552), (20, 13, 1561),
      (20, 12, 1611), (19, 14, 1742), (19, 13, 1744), (19, 12, 1753),
      (18, 13, 1772), (18, 12, 1774), (18, 11, 1782), (18, 10, 1823),
      (18, 9, 1934), (17, 12, 1990), (17, 11, 1992), (17, 10, 1994),
      (17, 9, 2002), (16, 11, 2022), (16, 10, 2024), (16, 9, 2033),
      (16, 8, 2088), (16, 7, 2188), (15, 10, 2253), (15, 9, 2255),
      (15, 8, 2263), (15, 7, 2299), (15, 6, 2473), (14, 9, 2509),
      (14, 8, 2511), (14, 7, 2514), (14, 6, 2540), (14, 5, 2579),
      (11, 6, 2617), (11, 5, 2619), (11, 4, 2621), (11, 3, 2635),
      (10, 5, 2666), (10, 4, 2669), (9, 4, 2706), (9, 3, 2709), (9, 2, 2780),
      (9, 1, 3104)]),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), "89cb5d9aaeb4be67",
     []),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000), "315258dcc827f515",
     [(39, 65, 1594), (39, 64, 1595), (39, 63, 1597), (39, 62, 1603),
      (39, 61, 1613), (39, 60, 1617), (39, 59, 1647), (39, 58, 1696),
      (39, 57, 1770), (38, 61, 1855), (38, 60, 1856), (38, 59, 1860),
      (38, 58, 1872), (38, 57, 1882), (38, 56, 1902), (38, 55, 1999),
      (38, 54, 2216), (35, 57, 2315), (35, 56, 2316), (35, 55, 2325),
      (35, 54, 2332), (35, 53, 2351), (35, 52, 2377), (35, 51, 2446),
      (35, 50, 2529), (33, 53, 2566), (33, 52, 2567), (33, 51, 2569),
      (33, 50, 2576), (33, 49, 2586), (33, 48, 2590), (33, 47, 2779)]),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), "04d7e41e0695fc48",
     [(16, 28, 11), (16, 27, 12), (16, 26, 15), (16, 25, 23), (16, 24, 41),
      (16, 23, 68), (16, 22, 78), (16, 21, 151), (16, 20, 399), (16, 19, 1204),
      (13, 23, 1317), (13, 22, 1318), (13, 21, 1321), (13, 20, 1331),
      (13, 19, 1352), (13, 18, 1379), (13, 17, 1392), (13, 16, 1485),
      (13, 15, 1618), (13, 14, 1807), (12, 18, 1936), (12, 17, 1938),
      (12, 16, 1941), (12, 15, 1951), (12, 14, 1967), (12, 13, 1973),
      (12, 12, 2118), (12, 11, 2400), (11, 19, 3060), (11, 18, 3061),
      (11, 17, 3066), (11, 16, 3073), (11, 15, 3092), (11, 14, 3118),
      (11, 13, 3128), (11, 12, 3213), (11, 11, 3330), (11, 10, 3751),
      (8, 12, 3879), (8, 11, 3881), (8, 10, 3886), (8, 9, 3899), (8, 8, 3936),
      (8, 7, 4000), (8, 6, 4158), (8, 5, 4357), (8, 4, 4950), (8, 3, 5403),
      (7, 10, 5531), (7, 9, 5532), (7, 8, 5543), (7, 7, 5562), (7, 6, 5577),
      (7, 5, 5590), (7, 4, 5622), (7, 3, 5754), (7, 2, 6108), (7, 1, 7597)]),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), "b1135591484c405d",
     []),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), None,
     []),
    (("grid:3", 2, "qcc-x", 2, 16, True, 3000), "4901eb35bcc5f9fe",
     []),
    (("rigetti-21", 1, "qcc-x", 2, 8, False, 3000), "f2681f314c1f3e21",
     [(7, 16, 6), (7, 15, 8), (7, 14, 14), (7, 13, 26), (7, 12, 208),
      (7, 11, 471), (7, 10, 783), (7, 9, 1186), (7, 8, 1352), (7, 7, 2842)]),
    (("rigetti-21", 2, "qcc", 1, 8, True, 3000), "11f4caee2c5e48bc",
     [(11, 51, 701), (11, 50, 702), (11, 49, 704), (11, 48, 712),
      (11, 47, 736), (11, 46, 772), (11, 45, 989), (11, 44, 1909)]),
]


@pytest.mark.parametrize("case,best_hash,trace", TRACE_CASES,
                         ids=["-".join(map(str, c[:6]))
                              for c, _, _ in TRACE_CASES])
def test_search_trace_is_pinned(case, best_hash, trace):
    result = _search(case)
    assert [(i.schedule.makespan, i.schedule.swap_count, i.nodes)
            for i in result.incumbents] == trace
    digest = None if result.best is None else \
        sha1(repr(result.best.tasks).encode()).hexdigest()[:16]
    assert digest == best_hash


def _undone_swaps(schedule):
    """Swaps that start on a gate at the instant a swap on it ends."""
    ends = {(t.location, t.end) for t in schedule.tasks if t.kind == "swap"}
    return [t for t in schedule.tasks
            if t.kind == "swap" and (t.location, t.start) in ends]


@pytest.mark.parametrize("case", [c for c, _, _ in TRACE_CASES],
                         ids=["-".join(map(str, c[:6]))
                              for c, _, _ in TRACE_CASES])
def test_no_incumbent_undoes_a_swap(case):
    for item in _search(case).incumbents:
        assert _undone_swaps(item.schedule) == []
