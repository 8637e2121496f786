"""The graph tables cached on Chip: shared, never mutated, not part of equality."""

import copy

from qcsched.cpsolver import build_model, search
from qcsched.instance import build_grid_chip, build_preset_chip, \
    generate_instance
from qcsched.oracle import optimal_makespan
from qcsched.router import all_pairs_distances, bfs_distances, solve_greedy
from qcsched.schedule import validate


def test_tables_are_computed_once():
    chip = build_preset_chip("rigetti-21")
    assert all_pairs_distances(chip) is all_pairs_distances(chip)
    assert bfs_distances(chip, 3) is chip.swap_distances[3]
    assert chip.crosstalk_zones is chip.crosstalk_zones


def test_tables_match_the_graph():
    chip = build_grid_chip(3)
    assert chip.swap_neighbors[5] == (2, 4, 6, 8)
    assert chip.swap_distances[1][9] == 4
    assert chip.crosstalk_zone(5, 2) == frozenset({1, 3, 4, 6, 8})
    assert chip.crosstalk_zone(2, 5) is chip.crosstalk_zones[(2, 5)]


def test_solvers_leave_the_tables_unchanged():
    chip = build_preset_chip("rigetti-8")
    instance = generate_instance(chip, 3, stages=1, variant="qcc-x", seed=4)
    distances = copy.deepcopy(chip.swap_distances)
    zones = copy.deepcopy(chip.crosstalk_zones)
    greedy = solve_greedy(instance, seed=4)
    assert validate(instance, greedy).valid
    search(build_model(instance), greedy, node_budget=500)
    optimal_makespan(instance)
    assert chip.swap_distances == distances
    assert chip.crosstalk_zones == zones


def test_cached_tables_do_not_affect_equality():
    warm = build_preset_chip("rigetti-21")
    solve_greedy(generate_instance(warm, 10, stages=2, variant="qcc-x",
                                   seed=1), seed=1)
    cold = build_preset_chip("rigetti-21")
    assert "swap_distances" in vars(warm)
    assert "swap_distances" not in vars(cold)
    assert warm == cold
    assert hash(warm) == hash(cold)
