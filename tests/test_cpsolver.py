import gc
import math
import weakref
from dataclasses import replace

import pytest

from qcsched.cpsolver import (CONFLICT, FIXPOINT, INFEASIBLE, ModelError,
                              OPTIMAL, TIMEOUT, _Engine, build_model,
                              check_assignment, propagate, search,
                              warm_start)
from qcsched.fixtures import worked_example
from qcsched.instance import (BLUE, DEFAULT_PS_DURATION, PS_COLORS, Chip,
                              Edge, Instance, build_grid_chip,
                              build_preset_chip, generate_instance)
from qcsched.oracle import optimal_makespan
from qcsched.router import (RoutingError, solve_greedy,
                            solve_sequential_baseline)
from qcsched.schedule import GateTask, Schedule, validate
from tasks import init_task, mix_task, ps_task, swap_task


@pytest.fixture
def example():
    return worked_example()


def test_model_variable_counts():
    chip = build_preset_chip("rigetti-8")
    instance = generate_instance(chip, 5, stages=1, variant="qcc", seed=0)
    model = build_model(instance)
    assert model.horizon == instance.horizon


def test_model_two_stage_counts():
    chip = build_grid_chip(2)
    instance = generate_instance(chip, 2, stages=2, variant="qcc", seed=0)
    model = build_model(instance)
    assert model.horizon == instance.horizon


def test_check_assignment_has_no_swap_cap():
    # goals x stages is 1 here, and no rule limits the swaps on a gate
    instance = Instance(chip=build_grid_chip(2), goals=((1, 2),))
    tasks = [ps_task(1, 2, 0, 3, 1)] + \
        [swap_task(3, 4, start, 2) for start in (0, 2, 4)]
    schedule = Schedule.from_tasks(tasks)
    assert validate(instance, schedule).valid
    assert check_assignment(build_model(instance), schedule) == (True, ())


def test_model_free_placement_tag():
    chip = build_grid_chip(2)
    instance = generate_instance(chip, 1, stages=1, variant="qcc-i", seed=0)
    result = search(build_model(instance))
    inits = [t for t in result.best.tasks if t.kind == "init"]
    assert len(inits) == chip.qubit_count
    # the same init tasks are rejected when the placement is fixed
    fixed = replace(instance, variant="qcc")
    ok, reasons = check_assignment(build_model(fixed), result.best)
    assert not ok
    assert any("fixed-placement" in r for r in reasons)


def _chip(swaps, fixed, color=BLUE):
    """Blue edges among ``swaps`` (swap-enabled), and edges of ``color``
    among ``fixed`` (ps only)."""
    edges = [Edge(u, v, BLUE, 3) for u, v in swaps] + \
        [Edge(u, v, color, DEFAULT_PS_DURATION[color], swap_enabled=False)
         for u, v in fixed]
    return Chip(qubit_count=max(max(e.pair) for e in edges),
                edges=tuple(edges))


# goal 1's states sit on qubits the swap edges do not connect: a path whose
# edge (2, 3) swaps nothing, and a square with no swap edge at all
UNROUTABLE = [
    Instance(chip=_chip([(1, 2)], [(2, 3)]), goals=((1, 3),)),
    Instance(chip=_chip([], [(1, 2), (1, 3), (2, 4), (3, 4)]),
             goals=((1, 4),)),
]


@pytest.mark.parametrize("instance", UNROUTABLE)
def test_unroutable_goal_is_rejected_by_the_model(instance):
    with pytest.raises(RoutingError, match="goal 1 "):
        solve_greedy(instance)
    with pytest.raises(RoutingError, match="goal 1 "):
        build_model(instance)


@pytest.mark.parametrize("instance", UNROUTABLE)
def test_unroutable_goal_is_rejected_by_the_oracle(instance):
    with pytest.raises(RoutingError, match="goal 1 "):
        optimal_makespan(instance)


def test_free_placement_prunes_a_split_goal():
    # qcc-i may put goal (1, 3) on an edge at once, or on qubits 1 and 3,
    # where a swap onto qubit 2 and a gate on the fixed edge (2, 3) take 5
    instance = Instance(chip=_chip([(1, 2)], [(2, 3)]), goals=((1, 3),),
                        variant="qcc-i")
    result = search(build_model(instance))
    assert result.status == OPTIMAL
    assert result.best.objective() == (3, 0)
    assert optimal_makespan(instance) == 3


def test_free_placement_needs_no_swap_edge():
    # no edge swaps: qcc-i puts goal (1, 4) on an edge, and prunes the
    # placements on the diagonal, which no edge can join
    instance = replace(UNROUTABLE[1], variant="qcc-i")
    result = search(build_model(instance))
    assert (result.status, result.best.objective()) == (OPTIMAL, (3, 0))
    assert optimal_makespan(instance) == 3


def test_a_ps_only_chord_needs_no_swap():
    # the path 1-2-3-4 with a ps-only chord (1, 4): goal (1, 4) runs on the
    # chord at once, where the swap path takes a swap round and a gate
    instance = Instance(chip=_chip([(1, 2), (2, 3), (3, 4)], [(1, 4)]),
                        goals=((1, 4),))
    assert optimal_makespan(instance) == 3
    result = search(replace(build_model(instance), horizon=4))
    assert (result.status, result.best.objective()) == (OPTIMAL, (3, 0))
    assert validate(instance, result.best).valid


def _ps_only_shapes(color):
    """Swap-connected chips with one ps-only edge of ``color``: a 4-cycle,
    a 4-path with chord (1, 3), a 5-path with chord (1, 5), and grid:2
    with the diagonal (1, 4)."""
    path4, path5 = [(1, 2), (2, 3), (3, 4)], [(1, 2), (2, 3), (3, 4), (4, 5)]
    return (_chip(path4, [(1, 4)], color), _chip(path4, [(1, 3)], color),
            _chip(path5, [(1, 5)], color),
            _chip([(1, 2), (1, 3), (2, 4), (3, 4)], [(1, 4)], color))


@pytest.mark.parametrize("color", PS_COLORS)
def test_search_matches_oracle_on_ps_only_edges(color):
    for chip in _ps_only_shapes(color):
        # two stages on the 5-path take the oracle seconds per instance
        runs = ((1, 1), (1, 2)) if chip.qubit_count == 5 \
            else ((1, 1), (1, 2), (2, 1))
        for variant in ("qcc", "qcc-x"):
            for stages, goals in runs:
                for seed in range(3):
                    instance = generate_instance(chip, goals, stages=stages,
                                                 variant=variant, seed=seed)
                    opt = optimal_makespan(instance)
                    result = search(build_model(instance),
                                    node_budget=200000)
                    assert result.status == OPTIMAL
                    assert result.best.makespan == opt, instance.goals
                    assert validate(instance, result.best).valid


def test_propagate_overload_conflict():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 2),))
    model = build_model(instance)
    assert propagate(model) == FIXPOINT
    fits = replace(model, horizon=chip.min_ps_duration)
    assert propagate(fits) == FIXPOINT
    short = replace(model, horizon=chip.min_ps_duration - 1)
    assert propagate(short) == CONFLICT
    result = search(short)
    assert (result.status, result.best, result.nodes) == (INFEASIBLE, None, 0)


def test_propagate_two_stage_needs_mix_between_gates():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 2),), stages=2)
    need = 2 * chip.min_ps_duration + chip.mix_duration
    model = build_model(instance)
    assert propagate(replace(model, horizon=need)) == FIXPOINT
    assert propagate(replace(model, horizon=need - 1)) == CONFLICT
    # with no goals nothing has to fit
    empty = build_model(Instance(chip=chip, goals=(), stages=2))
    assert propagate(replace(empty, horizon=0)) == FIXPOINT


def test_search_proves_worked_example(example):
    instance, schedule = example
    result = search(build_model(instance), budget_s=10.0)
    assert result.status == OPTIMAL
    assert result.best.makespan == 5
    assert result.best.swap_count == schedule.swap_count
    assert validate(instance, result.best).valid


def test_search_diagonal_goal():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 4),))
    result = search(build_model(instance))
    assert result.status == OPTIMAL
    assert result.best.makespan == 5


def test_search_zero_budget_keeps_incumbent(example):
    instance, _ = example
    warm = solve_greedy(instance, seed=1)
    result = search(build_model(instance), incumbent=warm, budget_s=0)
    assert result.status == TIMEOUT
    assert result.best == warm


def test_search_rejects_a_non_finite_budget(example):
    instance, _ = example
    with pytest.raises(ValueError, match="finite"):
        search(build_model(instance), budget_s=math.nan, node_budget=10)


def test_search_infeasible_on_tiny_horizon():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 4),))
    tight = replace(build_model(instance), horizon=4)
    assert propagate(tight) == FIXPOINT    # one gate fits; the swap does not
    result = search(tight)
    assert result.status == INFEASIBLE
    assert result.best is None


def test_tight_horizon_is_refuted_at_the_root():
    # states 1 and 9 sit in opposite corners of grid:3: two swap rounds and
    # a ps gate take 7, so with no incumbent the horizon 6 bounds the root
    instance = Instance(build_grid_chip(3), ((1, 9),))
    result = search(replace(build_model(instance), horizon=6),
                    node_budget=1000)
    assert (result.status, result.best, result.nodes) == (INFEASIBLE, None, 1)


def test_search_no_goals_two_stages():
    chip = build_grid_chip(2)
    instance = Instance(chip=chip, goals=(), stages=2)
    result = search(build_model(instance))
    assert result.status == OPTIMAL
    assert result.best.makespan == 0
    assert validate(instance, result.best).valid   # mixes still placed


def test_incumbents_strictly_improve():
    # with two stages, trailing mixes; with free placement, init tasks. Seed
    # 2's first qcc incumbent is its last, so seed 3 gives each class a
    # search that improves.
    chip = build_preset_chip("rigetti-8")
    improved = set()
    for stages, variant, seed, nodes in (
            (1, "qcc", 2, 50000), (2, "qcc", 2, 5000), (1, "qcc-i", 2, 20000),
            (1, "qcc", 3, 50000), (2, "qcc", 3, 5000)):
        instance = generate_instance(chip, 3, stages=stages, variant=variant,
                                     seed=seed)
        hooked = []
        result = search(build_model(instance), node_budget=nodes,
                        on_incumbent=hooked.append)
        # the hook got each incumbent, in order, as the record kept
        assert len(hooked) == len(result.incumbents)
        assert all(a is b for a, b in zip(hooked, result.incumbents))
        objectives = [i.schedule.objective() for i in result.incumbents]
        assert objectives
        if len(objectives) > 1:
            improved.add((stages, variant))
        for a, b in zip(objectives, objectives[1:]):
            assert b < a
        for item in result.incumbents:   # each built after the search ended
            assert (item.makespan, item.swap_count) == \
                item.schedule.objective()
            assert validate(instance, item.schedule).valid
        assert result.best is result.incumbents[-1].schedule
    assert improved == {(1, "qcc"), (2, "qcc"), (1, "qcc-i")}


def test_kept_results_hold_no_engine(monkeypatch):
    # an incumbent builds its schedule from the model and its leaf, so a
    # kept result does not keep the search's engine, memo and tables
    engines = []
    init = _Engine.__init__

    def tracked(self, *args):
        init(self, *args)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(_Engine, "__init__", tracked)
    chip = build_preset_chip("rigetti-8")
    instance = generate_instance(chip, 3, stages=2, variant="qcc", seed=2)
    model = build_model(instance)
    kept = [search(model, node_budget=5000),
            search(model, solve_sequential_baseline(instance),
                   node_budget=5000)]
    for result in kept:
        assert result.incumbents
        for item in result.incumbents:
            assert validate(instance, item.schedule).valid
    gc.collect()
    assert len(engines) == 2
    assert [ref() for ref in engines] == [None, None]


def test_warm_start_rejects_divergent(example):
    instance, _ = example
    model = build_model(instance)
    bogus = Schedule.from_tasks([ps_task(1, 2, 0, 3, 1)])   # wrong states
    with pytest.raises(ModelError):
        warm_start(model, bogus)


def test_warm_start_never_degrades():
    chip = build_grid_chip(3)
    for seed in range(5):
        instance = generate_instance(chip, 3, stages=1, variant="qcc",
                                     seed=seed)
        warm = solve_greedy(instance, seed=seed)
        result = search(build_model(instance), incumbent=warm,
                        node_budget=20000)
        assert result.best.objective() <= warm.objective()


def test_check_assignment_flags_each_rule():
    chip = build_grid_chip(2)
    instance = Instance(chip=chip, goals=((1, 2),), stages=2)
    model = build_model(instance)
    mixes = [mix_task(q, 4, 1, q) for q in chip.qubits]
    good = Schedule.from_tasks([ps_task(1, 2, 0, 3, 1),
                                ps_task(1, 2, 10, 3, 2)] + mixes)
    ok, reasons = check_assignment(model, good)
    assert ok, reasons
    # duplicated goal ps
    dup = Schedule.from_tasks(list(good.tasks) + [ps_task(3, 4, 20, 4, 1)])
    assert not check_assignment(model, dup)[0]
    # overlapping tasks on one qubit
    clash = Schedule.from_tasks(list(good.tasks) + [swap_task(1, 3, 1, 2)])
    assert not check_assignment(model, clash)[0]
    # mix dropped
    partial = Schedule.from_tasks(list(good.tasks)[:-1])
    assert not check_assignment(model, partial)[0]


def test_search_matches_oracle_sample():
    for side, goals, variant, stages, seed in (
            (2, 2, "qcc", 1, 0), (2, 2, "qcc-x", 2, 1),
            (2, 3, "qcc-i", 1, 2), (3, 2, "qcc", 1, 3)):
        chip = build_grid_chip(side)
        instance = generate_instance(chip, goals, stages=stages,
                                     variant=variant, seed=seed)
        opt = optimal_makespan(instance)
        result = search(build_model(instance), node_budget=10**6)
        assert result.status == OPTIMAL
        assert result.best.makespan == opt


def test_search_with_baseline_warm_start_matches_oracle():
    chip = build_grid_chip(2)
    instance = generate_instance(chip, 2, stages=2, variant="qcc", seed=4)
    warm = solve_sequential_baseline(instance)
    result = search(build_model(instance), incumbent=warm)
    assert result.status == OPTIMAL
    assert result.best.makespan == optimal_makespan(instance)


def test_many_candidates_do_not_exhaust_the_stack():
    # rigetti-21 with 10 goals offers hundreds of gate candidates per event;
    # enumerating their subsets must not recurse once per candidate
    chip = build_preset_chip("rigetti-21")
    instance = generate_instance(chip, 10, stages=2, variant="qcc-x", seed=0)
    result = search(build_model(instance), node_budget=1000)
    assert result.status == TIMEOUT
    assert result.nodes == 1000


# The path 1-2-3-4, whose edge (3, 4) runs ps gates but no swap.
PATH = _chip([(1, 2), (2, 3)], [(3, 4)])
ONE = Instance(chip=PATH, goals=((1, 2),))
TWO = Instance(chip=PATH, goals=((1, 2),), stages=2)
FREE = Instance(chip=PATH, goals=((1, 2),), variant="qcc-i")
CROSSTALK = Instance(chip=build_grid_chip(2), goals=((1, 2),),
                     variant="qcc-x")
GOAL = ps_task(1, 2, 0, 3, 1)
MIXES = [mix_task(q, 3, 1, q) for q in PATH.qubits]
INITS = [init_task(q, q) for q in PATH.qubits]
WORKED, WORKED_SCHEDULE = worked_example()


def _reversed(tasks):
    """The tasks with each edge location written (v, u)."""
    return [t._replace(location=t.location[::-1])
            if isinstance(t.location, tuple) else t for t in tasks]


# (instance, tasks) that keep every rule
GOOD = {
    "one stage": (ONE, [GOAL, swap_task(2, 3, 3, 2)]),
    "two stages": (TWO, [GOAL] + MIXES + [ps_task(1, 2, 4, 3, 2)]),
    "free placement": (FREE, INITS + [GOAL]),
    "crosstalk": (CROSSTALK, [GOAL, swap_task(3, 4, 3, 2)]),
    "reversed pairs": (WORKED, _reversed(WORKED_SCHEDULE.tasks)),
}

# (instance, tasks) that break one rule each
BROKEN = {
    "swap on a ps-only edge": (ONE, [GOAL, swap_task(3, 4, 0, 2)]),
    "reversed swap on a ps-only edge": (
        ONE, [GOAL, GateTask("swap", (4, 3), 0, 2)]),
    "ps on a non-edge": (Instance(chip=PATH, goals=((1, 3),)),
                         [ps_task(1, 3, 0, 3, 1)]),
    "ps with no goal": (ONE, [GateTask("ps", (1, 2), 0, 3)]),
    "unknown kind": (ONE, [GOAL, GateTask("cz", (3, 4), 0, 3)]),
    "mix on a pair": (TWO, [GOAL] + MIXES[:3]
                      + [GateTask("mix", (3, 4), 4, 1, state=4),
                         ps_task(1, 2, 4, 3, 2)]),
    "mix in one stage": (ONE, [GOAL, mix_task(3, 0, 1, 3)]),
    "mix before its stage-1 gate": (
        TWO, [mix_task(1, 0, 1, 1), ps_task(1, 2, 1, 3, 1)]
        + [mix_task(q, 4, 1, q) for q in (2, 3, 4)]
        + [ps_task(1, 2, 5, 3, 2)]),
    "init under fixed placement": (ONE, INITS + [GOAL]),
    "duplicate init": (FREE, INITS + [init_task(4, 4), GOAL]),
    "missing init": (FREE, INITS[:3] + [GOAL]),
    "init out of range": (FREE, INITS[:3] + [init_task(4, 5), GOAL]),
    "init with no state": (FREE, INITS[:3]
                           + [GateTask("init", 4, 0, 0), GOAL]),
    "init after time 0": (FREE, INITS[:3]
                          + [GateTask("init", 4, 1, 0, state=4), GOAL]),
    "wrong states at a ps gate": (ONE, [ps_task(2, 3, 0, 3, 1)]),
    "ps duration": (ONE, [ps_task(1, 2, 0, 4, 1)]),
    "swap duration": (ONE, [GOAL, swap_task(2, 3, 3, 1)]),
    "zero-length swap": (ONE, [GOAL, swap_task(2, 3, 3, 0)]),
    "negative start": (ONE, [ps_task(1, 2, -1, 3, 1)]),
    "overlap": (ONE, [GOAL, swap_task(2, 3, 1, 2)]),
    "crosstalk": (CROSSTALK, [GOAL, swap_task(3, 4, 1, 2)]),
}


@pytest.mark.parametrize("row", sorted(GOOD))
def test_both_checkers_accept_each_rule_table_base(row):
    instance, tasks = GOOD[row]
    schedule = Schedule.from_tasks(tasks)
    assert validate(instance, schedule).valid
    assert check_assignment(build_model(instance), schedule) == (True, ())


@pytest.mark.parametrize("row", sorted(BROKEN))
def test_both_checkers_reject_each_broken_rule(row):
    instance, tasks = BROKEN[row]
    schedule = Schedule.from_tasks(tasks)
    assert not check_assignment(build_model(instance), schedule)[0]
    assert not validate(instance, schedule).valid


@pytest.mark.parametrize("row", sorted(GOOD))
def test_both_checkers_agree_on_a_tightened_horizon(row):
    instance, tasks = GOOD[row]
    schedule = Schedule.from_tasks(tasks)
    model = build_model(instance)
    for horizon in range(3, 7):
        assert check_assignment(replace(model, horizon=horizon), schedule)[0] \
            == validate(instance, schedule, horizon=horizon).valid


def test_warm_search_from_reversed_pairs():
    schedule = Schedule.from_tasks(_reversed(WORKED_SCHEDULE.tasks))
    result = search(build_model(WORKED), incumbent=schedule, node_budget=1000)
    assert result.best.objective() <= schedule.objective()
    assert validate(WORKED, result.best).valid
