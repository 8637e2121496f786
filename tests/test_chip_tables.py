"""The graph tables cached on Chip: shared, never mutated, not part of equality."""

import copy
from collections import deque

from qcsched.cpsolver import _Engine, build_model, search
from qcsched.instance import BLUE, Chip, Edge, build_grid_chip, \
    build_preset_chip, generate_instance
from qcsched.oracle import optimal_makespan
from qcsched.router import all_pairs_distances, shortest_path, \
    solve_anytime, solve_greedy
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
    assert all(e.closer is chip.swap_next_gates for e in engines)


def test_tables_match_the_graph():
    chip = build_grid_chip(3)
    assert chip.swap_neighbors[5] == (2, 4, 6, 8)
    assert chip.swap_distances[1][9] == 4
    assert chip.crosstalk_zones[5][2] == frozenset({1, 3, 4, 6, 8})
    assert chip.crosstalk_zones[2][5] is chip.crosstalk_zones[5][2]
    assert chip.swap_hops[1][9] == 2


def test_hops_are_half_the_swap_distance():
    for chip in (build_grid_chip(3), build_preset_chip("rigetti-8"),
                 build_preset_chip("rigetti-21")):
        hops = chip.swap_hops
        assert len(hops) == chip.qubit_count + 1
        for q, row in enumerate(chip.swap_distances[1:], 1):
            assert len(hops[q]) == chip.qubit_count + 1
            for p in chip.qubits:
                assert hops[q][p] == row[p] // 2
    edges = (Edge(1, 2, BLUE, 3), Edge(2, 3, BLUE, 3, swap_enabled=False))
    hops = Chip(qubit_count=3, edges=edges).swap_hops
    assert hops[1][2] == 0
    assert hops[1][3] == 1      # state 1 swaps onto 2; the gate runs on (2, 3)
    assert hops[3][2] == 0      # the states already sit on the edge (2, 3)


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


CHIPS = (build_grid_chip(3), build_preset_chip("rigetti-8"),
         build_preset_chip("rigetti-21"),
         Chip(qubit_count=4, edges=(Edge(1, 2, BLUE, 3),
                                    Edge(2, 3, BLUE, 3, swap_enabled=False),
                                    Edge(3, 4, BLUE, 3))),
         # the path 1-2-3-4 with a ps-only chord (1, 4)
         Chip(qubit_count=4, edges=(Edge(1, 2, BLUE, 3), Edge(2, 3, BLUE, 3),
                                    Edge(3, 4, BLUE, 3),
                                    Edge(1, 4, BLUE, 3, swap_enabled=False))))


def test_next_hops_step_one_closer_in_neighbor_order():
    for chip in CHIPS:
        table = chip.swap_next_hops
        assert table is chip.swap_next_hops
        assert len(table) == chip.qubit_count + 1
        for b in chip.qubits:
            dist = chip.swap_distances[b]
            assert len(table[b]) == chip.qubit_count + 1
            for q in chip.qubits:
                hops = table[b][q]
                if q == b or dist[q] == float("inf"):
                    assert hops == ()
                    continue
                assert hops
                closer = [n for n in chip.swap_neighbors[q]
                          if dist[n] == dist[q] - 1]
                assert list(hops) == closer


def test_next_gates_are_the_swaps_to_the_next_hops():
    for chip in CHIPS:
        table = chip.swap_next_gates
        assert table is chip.swap_next_gates
        assert len(table) == chip.qubit_count + 1
        for b in chip.qubits:
            assert len(table[b]) == chip.qubit_count + 1
            for q in chip.qubits:
                assert table[b][q] == sum(
                    1 << i for i, e in enumerate(chip.swap_edges)
                    if q in e.pair and
                    e.u + e.v - q in chip.swap_next_hops[b][q])


def test_shortest_path_without_rng_takes_the_first_option():
    for chip in CHIPS[:3]:
        for a in chip.qubits:
            for b in chip.qubits:
                dist = chip.swap_distances[b]
                expected, cur = [a], a
                while cur != b:      # the lowest-numbered closer neighbor
                    cur = min(n for n in chip.swap_neighbors[cur]
                              if dist[n] == dist[cur] - 1)
                    expected.append(cur)
                assert shortest_path(chip, a, b) == expected


def test_ps_durations_match_the_edges():
    for chip in CHIPS:
        table = chip.ps_durations
        assert table is chip.ps_durations
        for u in chip.qubits:
            for v in chip.qubits:
                edge = chip.edge_map.get((u, v))
                assert table[u][v] == (edge.ps_duration if edge else 0)


def _bfs_distances(chip, source):
    """Hops from ``source`` over the swap edges, infinite where none lead."""
    dist = {q: float("inf") for q in chip.qubits}
    dist[source] = 0
    queue = deque([source])
    while queue:
        q = queue.popleft()
        for e in chip.swap_edges:
            if q in (e.u, e.v):
                n = e.v if q == e.u else e.u
                if dist[n] == float("inf"):
                    dist[n] = dist[q] + 1
                    queue.append(n)
    return dist


def test_swap_distances_are_breadth_first_hop_counts():
    for chip in CHIPS:
        table = chip.swap_distances
        assert len(table) == chip.qubit_count + 1
        for u in chip.qubits:
            assert len(table[u]) == chip.qubit_count + 1
            reference = _bfs_distances(chip, u)
            assert [table[u][v] for v in chip.qubits] == \
                [reference[v] for v in chip.qubits]


def test_hops_are_the_fewest_rounds_to_any_edge():
    # each state moves one swap edge per round, toward either end of any
    # edge, swap-enabled or not
    for chip in CHIPS:
        dist = {u: _bfs_distances(chip, u) for u in chip.qubits}
        ends = [(e.u, e.v) for e in chip.edges] + \
            [(e.v, e.u) for e in chip.edges]
        for u in chip.qubits:
            for v in chip.qubits:
                expected = 0 if u == v else \
                    min(max(dist[u][a], dist[v][b]) for a, b in ends)
                assert chip.swap_hops[u][v] == expected, (u, v)


def test_zones_are_the_neighbors_of_each_edge():
    for chip in CHIPS:
        zones = chip.crosstalk_zones
        pairs = {e.pair for e in chip.edges}
        for u in chip.qubits:
            for v in chip.qubits:
                if (min(u, v), max(u, v)) in pairs:
                    assert zones[u][v] == frozenset(
                        (set(chip.neighbors[u]) | set(chip.neighbors[v]))
                        - {u, v})
                else:
                    assert zones[u][v] is None


def test_edge_map_reads_either_order():
    for chip in CHIPS:
        assert len(chip.edge_map) == 2 * len(chip.edges)
        for e in chip.edges:
            assert chip.edge_map[(e.u, e.v)] is e
            assert chip.edge_map[(e.v, e.u)] is e
        assert chip.edge_map.get((0, 1)) is None


def test_placement_ranks_put_larger_swap_components_first():
    chip = CHIPS[3]               # swap components {1, 2} and {3, 4}
    assert chip.placement_ranks[1:] == [(-2, 1)] * 4
    chip = Chip(qubit_count=4, edges=(
        Edge(1, 2, BLUE, 3), Edge(2, 3, BLUE, 3),
        Edge(3, 4, BLUE, 3, swap_enabled=False)))
    assert chip.placement_ranks[1:] == [(-3, 3), (-3, 2), (-3, 3), (-1, 0)]
    grid = build_grid_chip(3)
    assert min(grid.qubits, key=grid.placement_ranks.__getitem__) == 5


def test_solvers_leave_the_router_tables_unchanged():
    chip = build_preset_chip("rigetti-8")
    hops = copy.deepcopy(chip.swap_next_hops)
    gates = copy.deepcopy(chip.swap_next_gates)
    durations = copy.deepcopy(chip.ps_durations)
    distances = copy.deepcopy(chip.swap_distances)
    ranks = copy.deepcopy(chip.placement_ranks)
    zones = copy.deepcopy(chip.crosstalk_zones)
    for variant in ("qcc", "qcc-i", "qcc-x"):
        instance = generate_instance(chip, 3, stages=2, variant=variant,
                                     seed=4)
        greedy = solve_greedy(instance, seed=4)
        solve_anytime(instance, seed=4, max_restarts=3)
        search(build_model(instance), greedy, node_budget=300)
    optimal_makespan(generate_instance(chip, 3, stages=1, variant="qcc",
                                       seed=4))
    assert chip.swap_next_hops == hops
    assert chip.swap_next_gates == gates
    assert chip.ps_durations == durations
    assert chip.swap_distances == distances
    assert chip.placement_ranks == ranks
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
