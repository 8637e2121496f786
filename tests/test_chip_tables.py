"""The graph tables cached on Chip: shared, never mutated, not part of equality."""

import copy

from qcsched.cpsolver import _Engine, build_model, search
from qcsched.instance import BLUE, Chip, Edge, build_grid_chip, \
    build_preset_chip, generate_instance
from qcsched.oracle import optimal_makespan
from qcsched.router import all_pairs_distances, solve_greedy
from qcsched.schedule import validate


def test_tables_are_computed_once():
    chip = build_preset_chip("rigetti-21")
    assert all_pairs_distances(chip) is all_pairs_distances(chip)
    assert chip.swap_distances[3] is all_pairs_distances(chip)[3]
    assert chip.crosstalk_zones is chip.crosstalk_zones
    assert chip.swap_hops is chip.swap_hops


def test_engines_share_the_hop_table():
    chip = build_preset_chip("rigetti-8")
    engines = [_Engine(build_model(generate_instance(chip, 4, stages=stages,
                                                     variant=variant, seed=1)),
                       None, None, None)
               for stages in (1, 2) for variant in ("qcc", "qcc-i", "qcc-x")]
    assert all(e.hops is chip.swap_hops for e in engines)


def test_tables_match_the_graph():
    chip = build_grid_chip(3)
    assert chip.swap_neighbors[5] == (2, 4, 6, 8)
    assert chip.swap_distances[1][9] == 4
    assert chip.crosstalk_zone(5, 2) == frozenset({1, 3, 4, 6, 8})
    assert chip.crosstalk_zone(2, 5) is chip.crosstalk_zones[(2, 5)]
    assert chip.swap_hops[1][9] == 2


def test_hops_are_half_the_swap_distance():
    for chip in (build_grid_chip(3), build_preset_chip("rigetti-8"),
                 build_preset_chip("rigetti-21")):
        hops = chip.swap_hops
        assert len(hops) == chip.qubit_count + 1
        for q, row in chip.swap_distances.items():
            assert len(hops[q]) == chip.qubit_count + 1
            for p in chip.qubits:
                assert hops[q][p] == row[p] // 2
    edges = (Edge(1, 2, BLUE, 3), Edge(2, 3, BLUE, 3, swap_enabled=False))
    hops = Chip(qubit_count=3, edges=edges).swap_hops
    assert hops[1][2] == 0
    assert hops[1][3] == hops[3][2] == float("inf")


def test_solvers_leave_the_tables_unchanged():
    chip = build_preset_chip("rigetti-8")
    instance = generate_instance(chip, 3, stages=1, variant="qcc-x", seed=4)
    distances = copy.deepcopy(chip.swap_distances)
    zones = copy.deepcopy(chip.crosstalk_zones)
    hops = copy.deepcopy(chip.swap_hops)
    greedy = solve_greedy(instance, seed=4)
    assert validate(instance, greedy).valid
    search(build_model(instance), greedy, node_budget=500)
    optimal_makespan(instance)
    assert chip.swap_distances == distances
    assert chip.crosstalk_zones == zones
    assert chip.swap_hops == hops


def test_cached_tables_do_not_affect_equality():
    warm = build_preset_chip("rigetti-21")
    solve_greedy(generate_instance(warm, 10, stages=2, variant="qcc-x",
                                   seed=1), seed=1)
    cold = build_preset_chip("rigetti-21")
    assert "swap_distances" in vars(warm)
    assert "swap_distances" not in vars(cold)
    assert warm == cold
    assert hash(warm) == hash(cold)
