"""Pinned outcomes of seeded exact searches.

Each case fixes an instance, an optional greedy warm start and a node budget,
and pins the (status, makespan, swaps, nodes) the search returned when the
values were recorded. A change to the solver's internals must leave all of
them as they are; a change that means to move them must say so.
"""

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
