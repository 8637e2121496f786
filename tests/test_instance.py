import json
from dataclasses import replace

import pytest

from qcsched.cpsolver import OPTIMAL, build_model, search
from qcsched.instance import (BLUE, RED, Chip, Edge, Instance, ParseError,
                              ValidationError, build_grid_chip,
                              build_preset_chip, generate_instance,
                              read_instance, write_instance)
from qcsched.router import solve_sequential_baseline
from qcsched.schedule import validate


def test_preset_rigetti8_shape():
    chip = build_preset_chip("rigetti-8")
    assert chip.qubit_count == 8
    assert len(chip.edges) == 8
    assert chip.side_length == 3
    assert chip.swap_duration == 2
    assert chip.mix_duration == 1
    colors = {e.ps_color for e in chip.edges}
    assert colors == {BLUE, RED}
    for e in chip.edges:
        assert e.ps_duration == (3 if e.ps_color == BLUE else 4)
    # every qubit sits on a ring: exactly two neighbors
    assert all(len(chip.neighbors[q]) == 2 for q in chip.qubits)


def test_preset_rigetti21_shape():
    chip = build_preset_chip("rigetti-21")
    assert chip.qubit_count == 21
    assert chip.side_length == 5
    assert all(e.ps_duration in (3, 4) for e in chip.edges)


def test_unknown_preset():
    with pytest.raises(ValueError):
        build_preset_chip("rigetti-99")


def test_grid_chip_alternating():
    chip = build_grid_chip(3)
    assert chip.qubit_count == 9
    assert len(chip.edges) == 12
    assert chip.side_length == 3
    # checkerboard: the two edges at opposite corners differ from the center
    seen = {e.pair: e.ps_color for e in chip.edges}
    assert seen[(1, 2)] == BLUE
    assert seen[(2, 3)] == RED


def test_grid_chip_all_blue():
    chip = build_grid_chip(2, "all-blue")
    assert all(e.ps_color == BLUE for e in chip.edges)
    with pytest.raises(ValueError):
        build_grid_chip(2, "plaid")
    with pytest.raises(ValueError):
        build_grid_chip(1)


def test_chip_rejects_duplicate_edge():
    with pytest.raises(ValidationError):
        Chip(2, (Edge(1, 2, BLUE, 3), Edge(2, 1, RED, 4)), side_length=2)


def test_chip_rejects_self_loop():
    with pytest.raises(ValidationError):
        Chip(2, (Edge(1, 1, BLUE, 3),), side_length=2)


def test_chip_rejects_disconnected():
    with pytest.raises(ValidationError):
        Chip(4, (Edge(1, 2, BLUE, 3), Edge(3, 4, BLUE, 3)), side_length=2)


def test_chip_rejects_bad_color():
    with pytest.raises(ValidationError):
        Chip(2, (Edge(1, 2, "green", 3),), side_length=2)


def test_chip_rejects_side_length_below_swap_diameter():
    # States 1 and 6 on a 6-qubit path need 4 swaps to meet, but side_length
    # 2 bounds the horizon by 2*2 - 3 = 1 swap per goal: the baseline broke
    # R9 and the exact search reported this solvable instance infeasible.
    path = tuple(Edge(q, q + 1, BLUE, 3) for q in range(1, 6))
    with pytest.raises(ValidationError, match="side_length 2"):
        Chip(6, path, side_length=2)
    instance = Instance(chip=Chip(6, path, side_length=4), goals=((1, 6),))
    assert validate(instance, solve_sequential_baseline(instance)).valid
    assert search(build_model(instance), node_budget=10_000).status == OPTIMAL
    # unreachable pairs do not count: 1-2-3 and 4-5-6 are 2 hops across
    split = tuple(replace(e, swap_enabled=e.pair != (3, 4)) for e in path)
    assert Chip(6, split, side_length=2).side_length == 2


@pytest.fixture
def chip():
    return build_grid_chip(2)


def test_instance_validation(chip):
    with pytest.raises(ValidationError):
        Instance(chip=chip, goals=((1, 2),), stages=3)
    with pytest.raises(ValidationError):
        Instance(chip=chip, goals=((1, 2),), variant="qcc-z")
    with pytest.raises(ValidationError):
        Instance(chip=chip, goals=((1, 9),))
    with pytest.raises(ValidationError):
        Instance(chip=chip, goals=((2, 2),))
    with pytest.raises(ValidationError):
        Instance(chip=chip, goals=((1, 2), (2, 1)))
    with pytest.raises(ValidationError):
        Instance(chip=chip, goals=((1, 2),), variant="qcc-i")  # needs "free"


def test_goal_indexing(chip):
    instance = Instance(chip=chip, goals=((1, 2), (3, 4)), stages=2)
    assert instance.goal_count == 2
    assert instance.total_goals == 4
    assert instance.goal_pair(1) == (1, 2)
    assert instance.goal_pair(3) == (1, 2)   # stage-2 duplicate
    assert instance.goal_stage(2) == 1
    assert instance.goal_stage(4) == 2
    with pytest.raises(IndexError):
        instance.goal_pair(5)


def test_generate_is_deterministic(chip):
    a = generate_instance(chip, 3, stages=1, variant="qcc", seed=11)
    b = generate_instance(chip, 3, stages=1, variant="qcc", seed=11)
    assert a == b
    assert a.instance_id == b.instance_id
    assert len(set(a.goals)) == 3


def test_generate_too_many_goals(chip):
    with pytest.raises(ValueError):
        generate_instance(chip, 7, stages=1, variant="qcc", seed=0)


def test_instance_roundtrip(tmp_path, chip):
    instance = generate_instance(chip, 2, stages=2, variant="qcc-i", seed=5,
                                 label="inst")
    path = tmp_path / "inst.json"
    write_instance(instance, path)
    again = read_instance(path)
    assert again == instance
    assert again.instance_id == instance.instance_id


def test_read_instance_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        read_instance(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"goals": []}))
    with pytest.raises(ParseError):
        read_instance(missing)


def test_crosstalk_zone():
    chip = build_preset_chip("rigetti-8")
    zone = chip.crosstalk_zone(1, 2)
    assert 1 not in zone and 2 not in zone
    expected = (set(chip.neighbors[1]) | set(chip.neighbors[2])) - {1, 2}
    assert zone == frozenset(expected)
