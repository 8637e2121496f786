import pytest

from qcsched.bounds import horizon_bound
from qcsched.instance import (Instance, build_grid_chip, build_preset_chip,
                              generate_instance)
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
    assert max(dist.values()) == 4
    assert all_pairs_distances(chip)[3][4] == 3


def test_shortest_path_endpoints():
    chip = build_grid_chip(3)
    path = shortest_path(chip, 1, 9)
    assert path[0] == 1 and path[-1] == 9
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert chip.edge_between(a, b) is not None


def test_baseline_is_valid_and_fits_horizon():
    for instance in _random_instances():
        schedule = solve_sequential_baseline(instance)
        report = validate(instance, schedule)
        assert report.valid, (instance.instance_id, report.violations[:2])
        assert schedule.total_span <= horizon_bound(instance)


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


def test_unroutable_goal():
    from qcsched.instance import BLUE, Chip, Edge
    edges = tuple(Edge(u, v, BLUE, 3, swap_enabled=False)
                  for u, v in ((1, 2), (1, 3), (2, 4), (3, 4)))
    chip = Chip(qubit_count=4, edges=edges, side_length=2)
    instance = Instance(chip=chip, goals=((1, 4),))
    with pytest.raises(RoutingError):
        solve_greedy(instance)


def test_anytime_stream_improves_strictly():
    chip = build_preset_chip("rigetti-8")
    instance = generate_instance(chip, 5, stages=1, variant="qcc", seed=3)
    incumbents = solve_anytime(instance, budget_s=30.0, seed=3,
                               max_restarts=60).incumbents
    assert incumbents[0].source == "baseline"
    objectives = [i.schedule.objective() for i in incumbents]
    for a, b in zip(objectives, objectives[1:]):
        assert b < a
    times = [i.found_at for i in incumbents]
    assert times == sorted(times)


def test_solve_anytime_returns_last_incumbent():
    chip = build_grid_chip(2)
    instance = generate_instance(chip, 2, stages=1, variant="qcc", seed=0)
    result = solve_anytime(instance, budget_s=10.0, seed=0, max_restarts=20)
    assert result.best == result.incumbents[-1].schedule
    assert validate(instance, result.best).valid
