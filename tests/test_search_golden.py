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
    (("rigetti-8", 2, "qcc", 1, 15, True, 5000), ("optimal", 8, 3, 3281)),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), ("optimal", 9, 1, 1513)),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), ("optimal", 7, 0, 1680)),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000),
     ("timeout", None, None, 3000)),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), ("optimal", 7, 1, 9023)),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), ("optimal", 8, 1, 41)),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), ("timeout", 16, 16, 3000)),
    (("grid:3", 2, "qcc-x", 2, 16, True, 3000), ("timeout", 20, 3, 3000)),
]


@pytest.mark.parametrize("case,expected", CASES,
                         ids=["-".join(map(str, c[:6])) for c, _ in CASES])
def test_search_outcome_is_pinned(case, expected):
    chip_name, goals, variant, stages, seed, warm, budget = case
    chip = build_grid_chip(3) if chip_name == "grid:3" \
        else build_preset_chip(chip_name)
    instance = generate_instance(chip, goals, stages=stages, variant=variant,
                                 seed=seed)
    incumbent = solve_greedy(instance, seed=seed) if warm else None
    result = search(build_model(instance), incumbent, node_budget=budget)
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
     [(9, 11, 24), (9, 10, 29), (9, 9, 36), (9, 8, 43), (9, 7, 70),
      (9, 6, 164), (9, 5, 329), (9, 4, 782), (9, 3, 2104), (8, 10, 2272),
      (8, 9, 2274), (8, 8, 2280), (8, 7, 2300), (8, 6, 2340), (8, 5, 2467),
      (8, 4, 2663), (8, 3, 2923)]),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), "bf2fe72682e1b0fa",
     [(11, 7, 9), (11, 6, 12), (11, 5, 15), (10, 5, 46), (10, 4, 49),
      (9, 4, 87), (9, 3, 101), (9, 2, 251), (9, 1, 671)]),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), "89cb5d9aaeb4be67",
     []),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000), None,
     []),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), "04d7e41e0695fc48",
     [(17, 23, 14), (17, 22, 22), (15, 21, 29), (15, 20, 37), (15, 19, 59),
      (15, 18, 110), (15, 17, 270), (13, 21, 328), (13, 20, 329),
      (13, 19, 334), (13, 18, 340), (13, 17, 344), (13, 16, 372),
      (13, 15, 409), (12, 20, 469), (12, 19, 470), (12, 18, 472),
      (12, 17, 476), (12, 16, 498), (12, 15, 532), (12, 14, 606),
      (12, 13, 788), (12, 12, 984), (12, 11, 1220), (11, 17, 1747),
      (11, 16, 1748), (11, 15, 1750), (11, 14, 1755), (11, 13, 1757),
      (11, 12, 1779), (11, 11, 1848), (11, 10, 1998), (11, 9, 2804),
      (9, 14, 3292), (9, 13, 3293), (9, 12, 3299), (9, 11, 3316),
      (9, 10, 3334), (9, 9, 3346), (9, 8, 3428), (9, 7, 3535), (8, 13, 3723),
      (8, 12, 3724), (8, 11, 3729), (8, 10, 3751), (8, 9, 3769), (8, 8, 3807),
      (8, 7, 3860), (8, 6, 4020), (8, 5, 4348), (8, 4, 5042), (8, 3, 6020),
      (7, 12, 6164), (7, 11, 6165), (7, 10, 6168), (7, 9, 6173), (7, 8, 6184),
      (7, 7, 6197), (7, 6, 6202), (7, 5, 6218), (7, 4, 6273), (7, 3, 6530),
      (7, 2, 6974), (7, 1, 8758)]),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), "b1135591484c405d",
     []),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), "865b0901b4ce7a77",
     [(16, 22, 16), (16, 21, 19), (16, 20, 24), (16, 19, 32), (16, 18, 60),
      (16, 17, 169), (16, 16, 363)]),
    (("grid:3", 2, "qcc-x", 2, 16, True, 3000), "4901eb35bcc5f9fe",
     []),
    (("rigetti-21", 1, "qcc-x", 2, 8, False, 3000), "e98d1d31e5a3a4c1",
     [(7, 16, 6), (7, 15, 8), (7, 14, 14), (7, 13, 26), (7, 12, 208),
      (7, 11, 413), (7, 10, 622), (7, 9, 837), (7, 8, 1019), (7, 7, 2487)]),
    (("rigetti-21", 2, "qcc", 1, 8, True, 3000), "18f8eb055730b2e9",
     [(11, 48, 13), (11, 47, 14), (11, 46, 16), (11, 45, 20), (11, 44, 28),
      (11, 43, 44), (11, 42, 109), (11, 41, 239), (11, 40, 376), (11, 39, 522),
      (11, 38, 686), (11, 37, 878), (11, 36, 1208), (11, 35, 1980)]),
]


@pytest.mark.parametrize("case,best_hash,trace", TRACE_CASES,
                         ids=["-".join(map(str, c[:6]))
                              for c, _, _ in TRACE_CASES])
def test_search_trace_is_pinned(case, best_hash, trace):
    chip_name, goals, variant, stages, seed, warm, budget = case
    chip = build_grid_chip(3) if chip_name == "grid:3" \
        else build_preset_chip(chip_name)
    instance = generate_instance(chip, goals, stages=stages, variant=variant,
                                 seed=seed)
    incumbent = solve_greedy(instance, seed=seed) if warm else None
    result = search(build_model(instance), incumbent, node_budget=budget)
    assert [(i.schedule.makespan, i.schedule.swap_count, i.nodes)
            for i in result.incumbents] == trace
    digest = None if result.best is None else \
        sha1(repr(result.best.tasks).encode()).hexdigest()[:16]
    assert digest == best_hash
