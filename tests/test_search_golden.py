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
    (("rigetti-8", 2, "qcc", 1, 15, True, 5000), ("optimal", 8, 3, 365)),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), ("optimal", 9, 1, 694)),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), ("optimal", 7, 0, 1680)),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000),
     ("timeout", None, None, 3000)),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), ("optimal", 7, 1, 519)),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), ("optimal", 8, 1, 63)),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), ("timeout", 7, 0, 3000)),
    (("grid:3", 2, "qcc-x", 2, 16, True, 3000), ("timeout", 17, 2, 3000)),
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
     []),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 5000), "bf2fe72682e1b0fa",
     [(11, 1, 5), (9, 1, 44)]),
    (("rigetti-8", 2, "qcc-i", 2, 2, True, 3000), "89cb5d9aaeb4be67",
     []),
    (("rigetti-8", 2, "qcc", 2, 16, False, 3000), None,
     []),
    (("grid:3", 2, "qcc", 1, 15, False, 10000), "04d7e41e0695fc48",
     [(7, 1, 4)]),
    (("grid:3", 2, "qcc-x", 1, 15, True, 5000), "b1135591484c405d",
     [(8, 1, 4)]),
    (("grid:3", 3, "qcc-i", 1, 3, False, 3000), "b6a4fb07b56ea14e",
     [(7, 0, 4)]),
    (("grid:3", 2, "qcc-x", 2, 16, True, 3000), "7f745c290351d257",
     []),
    (("rigetti-21", 1, "qcc-x", 2, 8, False, 3000), "05383dde18157c52",
     [(7, 0, 4)]),
    (("rigetti-21", 2, "qcc", 1, 8, True, 3000), "0915b07929f570e8",
     []),
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
# qcc-i searches over 16 and 504 root placements (the second warm, proving
# optimality), whose state must start fresh for each placement; a
# rigetti-21 qcc-x two-stage search with wide candidate sets and nodes
# entered while swaps run; a budget whose last node is a child pruned at its
# swap-rounds term, one node after an improving leaf; and a warm search in
# which the swap tie-break decides over a thousand prunes.
REACH_CASES = [
    (("grid:3", 3, "qcc-i", 1, 5, False, 3000), ("timeout", 6, 1, 3000),
     "86d5c9a9db618293",
     [(6, 1, 5)]),
    (("grid:3", 2, "qcc-i", 1, 2, True, 3000), ("optimal", 6, 0, 1611),
     "80a6a66edad2942b",
     [(6, 0, 755)]),
    (("rigetti-21", 3, "qcc-x", 2, 3, False, 3000), ("timeout", 28, 13, 3000),
     "14bd0d113021192d",
     [(28, 13, 17)]),
    (("rigetti-8", 3, "qcc-x", 1, 22, False, 45), ("timeout", 9, 1, 45),
     "bf2fe72682e1b0fa",
     [(11, 1, 5), (9, 1, 44)]),
    (("rigetti-8", 3, "qcc", 1, 4, True, 3000), ("timeout", 14, 3, 3000),
     "2273c9d1357424fe",
     []),
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
