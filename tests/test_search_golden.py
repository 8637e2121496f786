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
    (("rigetti-8", 2, "qcc", 1, 15, True, 5000), ("optimal", 8, 3, 800)),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), ("optimal", 9, 1, 1724)),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), ("optimal", 7, 0, 1680)),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000), ("timeout", 33, 46, 3000)),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), ("optimal", 7, 1, 1445)),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), ("optimal", 8, 1, 38)),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), ("timeout", 13, 10, 3000)),
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
     [(8, 10, 8), (8, 9, 11), (8, 8, 14), (8, 7, 24), (8, 6, 27), (8, 5, 58),
      (8, 4, 144), (8, 3, 531)]),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), "bf2fe72682e1b0fa",
     [(30, 23, 54), (30, 22, 73), (30, 21, 185), (29, 22, 279), (29, 21, 282),
      (29, 20, 300), (26, 21, 315), (26, 20, 317), (26, 19, 323),
      (25, 19, 326), (25, 18, 329), (25, 17, 344), (23, 17, 353),
      (23, 16, 355), (23, 15, 360), (22, 15, 363), (22, 14, 368),
      (21, 14, 371), (21, 13, 376), (20, 14, 380), (20, 13, 384),
      (20, 12, 399), (19, 13, 514), (19, 12, 518), (18, 12, 521),
      (18, 11, 524), (18, 10, 544), (18, 9, 636), (17, 10, 652), (17, 9, 657),
      (16, 10, 661), (16, 9, 665), (16, 8, 685), (16, 7, 766), (15, 9, 790),
      (15, 8, 793), (15, 7, 808), (15, 6, 963), (14, 7, 982), (14, 6, 992),
      (14, 5, 1012), (11, 5, 1034), (11, 4, 1036), (11, 3, 1044),
      (10, 4, 1055), (9, 3, 1069), (9, 2, 1117), (9, 1, 1246)]),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), "89cb5d9aaeb4be67",
     []),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000), "051449f287e1f9e7",
     [(39, 63, 110), (39, 62, 112), (39, 61, 115), (39, 60, 119),
      (39, 59, 140), (39, 58, 153), (39, 57, 182), (38, 59, 234),
      (38, 58, 237), (38, 57, 240), (38, 56, 251), (38, 55, 272),
      (38, 54, 305), (35, 56, 371), (35, 55, 373), (35, 54, 375),
      (35, 53, 383), (35, 52, 388), (35, 51, 403), (35, 50, 441),
      (33, 51, 445), (33, 50, 447), (33, 49, 450), (33, 48, 454),
      (33, 47, 570), (33, 46, 1186)]),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), "04d7e41e0695fc48",
     [(16, 28, 11), (16, 27, 12), (16, 26, 15), (16, 25, 23), (16, 24, 25),
      (16, 23, 29), (16, 22, 39), (16, 21, 92), (16, 20, 100), (16, 19, 139),
      (13, 20, 154), (13, 19, 157), (13, 18, 163), (13, 17, 176),
      (13, 16, 245), (13, 15, 271), (13, 14, 331), (12, 16, 362),
      (12, 15, 365), (12, 14, 369), (12, 13, 375), (12, 12, 435),
      (12, 11, 445), (11, 13, 484), (11, 12, 487), (11, 11, 491),
      (11, 10, 576), (8, 12, 595), (8, 11, 597), (8, 10, 602), (8, 9, 615),
      (8, 8, 622), (8, 7, 634), (8, 6, 642), (8, 5, 672), (8, 4, 1002),
      (8, 3, 1061), (7, 6, 1079), (7, 5, 1081), (7, 4, 1094), (7, 3, 1103),
      (7, 2, 1139), (7, 1, 1310)]),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), "b1135591484c405d",
     []),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), "a359e8ad3b6c00c2",
     [(30, 45, 43), (30, 44, 45), (30, 43, 67), (30, 42, 190), (29, 45, 201),
      (29, 44, 215), (29, 43, 247), (27, 45, 254), (27, 44, 256),
      (27, 43, 259), (27, 42, 263), (27, 41, 312), (27, 40, 317),
      (27, 39, 358), (25, 41, 378), (25, 40, 381), (25, 39, 387),
      (25, 38, 400), (25, 37, 468), (25, 36, 493), (25, 35, 556),
      (25, 34, 633), (24, 38, 665), (24, 37, 667), (24, 36, 671),
      (24, 35, 681), (24, 34, 733), (24, 33, 737), (24, 32, 757),
      (24, 31, 828), (24, 30, 1182), (23, 33, 1264), (23, 32, 1267),
      (23, 31, 1293), (23, 30, 1376), (21, 33, 1395), (21, 32, 1397),
      (21, 31, 1403), (21, 30, 1417), (21, 29, 1483), (21, 28, 1489),
      (21, 27, 1549), (20, 29, 1594), (20, 28, 1596), (20, 27, 1600),
      (20, 26, 1605), (20, 25, 1669), (20, 24, 1689), (19, 26, 1691),
      (19, 25, 1694), (19, 24, 1701), (19, 23, 1763), (19, 22, 2018),
      (18, 25, 2157), (18, 24, 2159), (18, 23, 2164), (18, 22, 2170),
      (18, 21, 2237), (18, 20, 2259), (18, 19, 2382), (15, 22, 2391),
      (15, 21, 2393), (15, 20, 2396), (15, 19, 2400), (15, 18, 2449),
      (15, 17, 2453), (15, 16, 2485), (15, 15, 2546), (13, 17, 2649),
      (13, 16, 2651), (13, 15, 2654), (13, 14, 2662), (13, 13, 2733),
      (13, 12, 2765), (13, 11, 2822), (13, 10, 2908)]),
    (("grid:3", 2, "qcc-x", 2, 16, True, 3000), "4901eb35bcc5f9fe",
     []),
    (("rigetti-21", 1, "qcc-x", 2, 8, False, 3000), "eb779597c6dfcaf5",
     [(7, 16, 6), (7, 15, 8), (7, 14, 14), (7, 13, 26), (7, 12, 208),
      (7, 11, 211), (7, 10, 237), (7, 9, 272), (7, 8, 438), (7, 7, 1647),
      (7, 6, 1727), (7, 5, 1873), (7, 4, 2297)]),
    (("rigetti-21", 2, "qcc", 1, 8, True, 3000), "00d529b36f55de02",
     [(11, 43, 701), (11, 42, 704), (11, 41, 710), (11, 40, 727),
      (11, 39, 750), (11, 38, 794), (11, 37, 1131), (11, 36, 2226),
      (11, 35, 2230), (11, 34, 2245), (11, 33, 2273), (11, 32, 2355),
      (11, 31, 2491)]),
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


# Searches that reach the parts of a node's children loop where a rewrite of
# it can go wrong, each pinned to its (status, makespan, swaps, nodes), the
# leading hex digits of sha1(repr(best.tasks)) and the incumbent trace:
# qcc-i searches over 13 and 504 root placements (the second warm, proving
# optimality), whose state must start fresh for each placement; a
# rigetti-21 qcc-x two-stage search with wide candidate sets and nodes
# entered while swaps run; a budget whose last node is a child pruned at its
# swap-rounds term, one node before an improving leaf; and a warm search in
# which the swap tie-break decides hundreds of prunes.
REACH_CASES = [
    (("grid:3", 3, "qcc-i", 1, 5, False, 3000), ("timeout", 6, 1, 3000),
     "86d5c9a9db618293",
     [(12, 18, 9), (12, 17, 11), (12, 16, 14), (12, 15, 24), (12, 14, 26),
      (12, 13, 30), (12, 12, 40), (12, 11, 94), (12, 10, 109), (12, 9, 186),
      (9, 11, 211), (9, 10, 213), (9, 9, 216), (9, 8, 225), (9, 7, 253),
      (9, 6, 261), (8, 6, 281), (8, 5, 287), (8, 4, 305), (8, 3, 484),
      (6, 4, 654), (6, 3, 657), (6, 2, 660), (6, 1, 691)]),
    (("grid:3", 2, "qcc-i", 1, 2, True, 3000), ("optimal", 6, 0, 1568),
     "80a6a66edad2942b",
     [(6, 5, 858), (6, 4, 860), (6, 3, 869), (6, 2, 876), (6, 1, 881),
      (6, 0, 904)]),
    (("rigetti-21", 3, "qcc-x", 2, 3, False, 3000), ("timeout", 41, 76, 3000),
     "645193ed12d7a89e",
     [(42, 91, 35), (42, 90, 40), (42, 89, 45), (42, 88, 62), (42, 87, 65),
      (42, 86, 85), (42, 85, 93), (42, 84, 117), (42, 83, 121), (41, 82, 131),
      (41, 81, 447), (41, 80, 628), (41, 79, 993), (41, 78, 1561),
      (41, 77, 2191), (41, 76, 2866)]),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 327), ("timeout", 25, 19, 327),
     "4f3529ea55572945",
     [(30, 23, 54), (30, 22, 73), (30, 21, 185), (29, 22, 279), (29, 21, 282),
      (29, 20, 300), (26, 21, 315), (26, 20, 317), (26, 19, 323),
      (25, 19, 326)]),
    (("rigetti-8", 3, "qcc", 1, 4, True, 3000), ("timeout", 13, 7, 3000),
     "11c0508f8dbe57b1",
     [(13, 16, 9), (13, 15, 11), (13, 14, 14), (13, 13, 18), (13, 12, 43),
      (13, 11, 58), (13, 10, 127), (13, 9, 246), (13, 8, 489),
      (13, 7, 2434)]),
]


@pytest.mark.parametrize("case,expected,best_hash,trace", REACH_CASES,
                         ids=["-".join(map(str, c[:7]))
                              for c, _, _, _ in REACH_CASES])
def test_search_reach_is_pinned(case, expected, best_hash, trace):
    result = _search(case)
    best = result.best
    assert (result.status, best.makespan, best.swap_count,
            result.nodes) == expected
    assert [(i.makespan, i.swap_count, i.nodes)
            for i in result.incumbents] == trace
    assert sha1(repr(best.tasks).encode()).hexdigest()[:16] == best_hash


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
