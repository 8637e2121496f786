import math

import pytest

from qcsched import router
from qcsched.instance import (BLUE, Chip, Edge, Instance, build_grid_chip,
                              build_preset_chip, generate_instance)
from qcsched.router import (RoutingError, all_pairs_distances, shortest_path,
                            solve_anytime, solve_greedy,
                            solve_sequential_baseline)
from qcsched.schedule import validate


def _random_instances(n=30):
    chips = [build_preset_chip("rigetti-8"), build_grid_chip(2),
             build_grid_chip(3)]
    out = []
    seed = 0
    while len(out) < n:
        for chip in chips:
            for variant in ("qcc", "qcc-i", "qcc-x"):
                for stages in (1, 2):
                    out.append(generate_instance(chip, 1 + seed % 4,
                                                 stages=stages, variant=variant,
                                                 seed=seed))
                    seed += 1
    return out[:n]


def test_distances_on_ring():
    chip = build_preset_chip("rigetti-8")
    dist = chip.swap_distances[1]
    assert dist[1] == 0 and dist[2] == 1
    assert max(dist[1:]) == 4
    assert all_pairs_distances(chip)[3][4] == 3


def test_shortest_path_endpoints():
    chip = build_grid_chip(3)
    path = shortest_path(chip, 1, 9)
    assert path[0] == 1 and path[-1] == 9
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert (a, b) in chip.edge_map


def test_baseline_is_valid_and_fits_horizon():
    for instance in _random_instances():
        schedule = solve_sequential_baseline(instance)
        report = validate(instance, schedule)
        assert report.valid, (instance.instance_id, report.violations[:2])
        assert schedule.total_span <= instance.horizon


def test_greedy_is_valid():
    for instance in _random_instances():
        schedule = solve_greedy(instance, seed=7)
        report = validate(instance, schedule)
        assert report.valid, (instance.instance_id, report.violations[:2])


def test_greedy_usually_beats_baseline():
    chip = build_preset_chip("rigetti-8")
    wins = ties = losses = 0
    for seed in range(10):
        instance = generate_instance(chip, 5, stages=1, variant="qcc",
                                     seed=seed)
        base = solve_sequential_baseline(instance).makespan
        greedy = solve_greedy(instance, seed=seed).makespan
        if greedy < base:
            wins += 1
        elif greedy == base:
            ties += 1
        else:
            losses += 1
    assert wins > losses


def test_greedy_walks_to_the_next_hop_released_first(monkeypatch):
    # the ring 1-2-4-3 with qubit 5 on 2: goal (2, 5) is nearest, and its ps
    # gate holds qubit 2 until 3, so goal (1, 4) must route through qubit 3
    chip = Chip(qubit_count=5, edges=tuple(
        Edge(u, v, BLUE, 3) for u, v in ((1, 2), (1, 3), (2, 4), (3, 4),
                                         (2, 5))))
    walks, walk = [], router.shortest_path

    def spy(chip, a, b, rng=None, ready=None):
        path = walk(chip, a, b, rng, ready)
        walks.append((chip, list(ready), path))
        return path

    monkeypatch.setattr(router, "shortest_path", spy)
    instance = Instance(chip=chip, goals=((2, 5), (1, 4)))
    for seed in range(6):
        schedule = solve_greedy(instance, seed=seed)
        assert validate(instance, schedule).valid and schedule.makespan == 5
        assert walks[-1][2] == [1, 3, 4]
        assert all(2 not in t.qubits for t in schedule.tasks
                   if t.kind == "swap" or t.goal_index == 2)
    # every greedy path is a shortest swap path through next hops released
    # first, on the small chip and on generated instances
    for instance in _random_instances(12):
        solve_greedy(instance, seed=3)
    for chip, ready, path in walks:
        hops = chip.swap_next_hops[path[-1]]
        assert len(path) == chip.swap_distances[path[-1]][path[0]] + 1
        for a, b in zip(path, path[1:]):
            assert b in hops[a]
            assert ready[b] == min(ready[q] for q in hops[a])


def test_unroutable_goal():
    edges = tuple(Edge(u, v, BLUE, 3, swap_enabled=False)
                  for u, v in ((1, 2), (1, 3), (2, 4), (3, 4)))
    chip = Chip(qubit_count=4, edges=edges)
    instance = Instance(chip=chip, goals=((1, 4),))
    with pytest.raises(RoutingError):
        solve_greedy(instance)


def _path_with_ps_only_middle(qubits: int):
    """The path 1-2-...-n whose edge (2, 3) runs ps gates but cannot swap."""
    return Chip(qubit_count=qubits, edges=tuple(
        Edge(u, u + 1, BLUE, 3, swap_enabled=(u != 2))
        for u in range(1, qubits)))


def test_free_placement_on_a_split_swap_graph():
    chip = _path_with_ps_only_middle(4)
    for goals in (((1, 2),), ((1, 2), (3, 4))):
        instance = Instance(chip=chip, goals=goals, variant="qcc-i")
        for seed in range(6):
            report = validate(instance, solve_greedy(instance, seed=seed))
            assert report.valid, (goals, seed, report.violations[:2])
        best = solve_anytime(instance, seed=0, max_restarts=3).best
        assert validate(instance, best).valid


def test_free_placement_that_splits_a_goal_is_unroutable():
    # three goals on three states, but no swap component holds all three
    instance = Instance(chip=_path_with_ps_only_middle(3),
                        goals=((1, 2), (1, 3), (2, 3)), variant="qcc-i")
    for seed in range(6):
        with pytest.raises(RoutingError):
            solve_greedy(instance, seed=seed)


def test_free_placement_anytime_starts_from_a_routable_restart():
    # the baseline keeps states 1 and 3 on qubits 1 and 3, which the swap
    # edges (1, 2) and (3, 4) keep apart; the greedy's placements do not
    instance = Instance(chip=_path_with_ps_only_middle(4), goals=((1, 3),),
                        variant="qcc-i")
    for seed in range(3):
        greedy = solve_greedy(instance, seed=seed)
        assert validate(instance, greedy).valid and greedy.makespan == 3
    result = solve_anytime(instance, seed=0, max_restarts=3)
    assert validate(instance, result.best).valid
    assert result.best.makespan == 3
    assert [i.source for i in result.incumbents] == ["greedy"]
    with pytest.raises(RoutingError, match="no swap path"):
        solve_anytime(instance, seed=0, max_restarts=0)
    # no placement routes all three goals: every restart fails too
    instance = Instance(chip=_path_with_ps_only_middle(3),
                        goals=((1, 2), (1, 3), (2, 3)), variant="qcc-i")
    with pytest.raises(RoutingError, match="no swap path"):
        solve_anytime(instance, seed=0, max_restarts=3)


def test_free_placement_avoids_a_qubit_no_swap_edge_reaches():
    # qubit 4 joins the chip by a ps-only edge, so its summed swap distance
    # is 0; the first state must still go to the swap path's center
    chip = Chip(qubit_count=4, edges=(
        Edge(1, 2, BLUE, 3), Edge(2, 3, BLUE, 3),
        Edge(3, 4, BLUE, 3, swap_enabled=False)))
    instance = Instance(chip=chip, goals=((1, 4),), variant="qcc-i")
    for seed in range(6):
        greedy = solve_greedy(instance, seed=seed)
        assert validate(instance, greedy).valid and greedy.makespan == 3
    best = solve_anytime(instance, seed=0, max_restarts=20).best
    assert validate(instance, best).valid and best.makespan == 3


def test_fixed_placement_anytime_starts_from_the_baseline():
    instance = Instance(chip=_path_with_ps_only_middle(4), goals=((1, 3),))
    with pytest.raises(RoutingError, match="no swap path"):
        solve_anytime(instance, seed=0, max_restarts=3)
    instance = Instance(chip=_path_with_ps_only_middle(4), goals=((1, 2),))
    result = solve_anytime(instance, seed=0, max_restarts=3)
    assert result.incumbents[0].source == "baseline"


def test_anytime_stream_improves_strictly():
    chip = build_preset_chip("rigetti-8")
    instance = generate_instance(chip, 5, stages=1, variant="qcc", seed=3)
    hooked = []
    incumbents = solve_anytime(instance, budget_s=30.0, seed=3,
                               max_restarts=60,
                               on_incumbent=hooked.append).incumbents
    # the hook got each incumbent, in order, as the record kept
    assert len(hooked) == len(incumbents)
    assert all(a is b for a, b in zip(hooked, incumbents))
    assert incumbents[0].source == "baseline"
    objectives = [i.schedule.objective() for i in incumbents]
    for a, b in zip(objectives, objectives[1:]):
        assert b < a
    times = [i.t for i in incumbents]
    assert times == sorted(times)


def test_solve_anytime_returns_last_incumbent():
    chip = build_grid_chip(2)
    instance = generate_instance(chip, 2, stages=1, variant="qcc", seed=0)
    result = solve_anytime(instance, budget_s=10.0, seed=0, max_restarts=20)
    assert result.best == result.incumbents[-1].schedule
    assert validate(instance, result.best).valid


def test_restart_cap_alone_runs_restarts():
    chip = build_preset_chip("rigetti-21")
    instance = generate_instance(chip, 60, stages=1, variant="qcc", seed=1)
    capped = solve_anytime(instance, max_restarts=20, seed=1)
    assert capped.best == solve_anytime(instance, budget_s=None,
                                        max_restarts=20, seed=1).best
    baseline = solve_sequential_baseline(instance)
    assert capped.best.objective() < baseline.objective()
    assert validate(instance, capped.best).valid


def test_anytime_needs_a_limit():
    instance = generate_instance(build_grid_chip(2), 2, stages=1,
                                 variant="qcc", seed=0)
    with pytest.raises(ValueError):
        solve_anytime(instance)
    with pytest.raises(ValueError):
        solve_anytime(instance, budget_s=None, max_restarts=None)


def test_anytime_rejects_a_non_finite_budget():
    instance = generate_instance(build_grid_chip(2), 2, stages=1,
                                 variant="qcc", seed=0)
    with pytest.raises(ValueError, match="finite"):
        solve_anytime(instance, budget_s=math.inf, max_restarts=1)
