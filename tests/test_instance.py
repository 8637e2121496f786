import dataclasses
import json
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from qcsched import instance as instance_module
from qcsched.cpsolver import OPTIMAL, build_model, search
from qcsched.instance import (BLUE, QCC_X, RED, VARIANTS, Chip, Edge,
                              Instance, ParseError, ValidationError,
                              _chip_from_dict, _instance_from_dict,
                              build_grid_chip, build_preset_chip, from_json,
                              generate_instance, read_instance, to_json,
                              write_instance)
from qcsched.fixtures import worked_example
from qcsched.router import solve_sequential_baseline
from qcsched.schedule import validate
from tasks import assert_round_trips


def test_preset_rigetti8_shape():
    chip = build_preset_chip("rigetti-8")
    assert chip.qubit_count == 8
    assert len(chip.edges) == 8
    assert chip.swap_diameter == 4     # states 1 and 8 sit across the ring
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
    assert chip.swap_diameter == 7
    assert all(e.ps_duration in (3, 4) for e in chip.edges)


def test_unknown_preset():
    with pytest.raises(ValueError):
        build_preset_chip("rigetti-99")


def test_grid_chip_alternating():
    chip = build_grid_chip(3)
    assert chip.qubit_count == 9
    assert len(chip.edges) == 12
    assert chip.swap_diameter == 4     # corner to corner
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
        Chip(2, (Edge(1, 2, BLUE, 3), Edge(2, 1, RED, 4)))


def test_chip_rejects_self_loop():
    with pytest.raises(ValidationError):
        Chip(2, (Edge(1, 1, BLUE, 3),))


def test_chip_rejects_disconnected():
    with pytest.raises(ValidationError):
        Chip(4, (Edge(1, 2, BLUE, 3), Edge(3, 4, BLUE, 3)))


def test_chip_with_too_few_edges_to_connect_is_rejected_at_once():
    """Found before an adjacency for every named qubit is built."""
    with pytest.raises(ValidationError, match="chip graph is not connected"):
        Chip(10**9, (Edge(1, 2, BLUE, 3),))


def test_chip_rejects_bad_color():
    with pytest.raises(ValidationError):
        Chip(2, (Edge(1, 2, "green", 3),))


def test_swap_allowance_from_graph():
    # States 1 and 6 on a 6-qubit path are 5 hops apart and need 4 swaps to
    # meet; the horizon allows exactly that, so the baseline fits it and the
    # exact search proves the optimum.
    path = tuple(Edge(q, q + 1, BLUE, 3) for q in range(1, 6))
    instance = Instance(chip=Chip(6, path), goals=((1, 6),))
    assert instance.chip.swap_diameter == 5
    assert instance.horizon == 4 * 2 + 3        # 4 swaps, then the gate
    assert validate(instance, solve_sequential_baseline(instance)).valid
    assert search(build_model(instance), node_budget=10_000).status == OPTIMAL
    # unreachable pairs do not count: 1-2-3 and 4-5-6 are 2 hops across
    split = tuple(replace(e, swap_enabled=e.pair != (3, 4)) for e in path)
    assert Chip(6, split).swap_diameter == 2
    # no swap gate at all: no swaps are ever allowed
    fixed = tuple(replace(e, swap_enabled=False) for e in path)
    assert Chip(6, fixed).swap_diameter == 0
    assert Instance(chip=Chip(6, fixed), goals=((1, 2),)).horizon == 3


def test_horizon_swap_allowance_presets():
    # diameter - 1 swaps per goal: the same 2*side - 3 that the chips' side
    # lengths gave, except on rigetti-21, whose graph is tighter than its
    # side length 5
    cases = [(build_preset_chip("rigetti-8"), 3),
             (build_preset_chip("rigetti-21"), 6)]
    cases += [(build_grid_chip(side), 2 * side - 3) for side in (2, 3, 4)]
    for chip, swaps in cases:
        instance = Instance(chip=chip, goals=((1, 2),))
        assert instance.horizon == \
            swaps * chip.swap_duration + chip.max_ps_duration


def test_horizon_single_stage():
    chip = build_preset_chip("rigetti-8")
    instance = Instance(chip=chip, goals=((1, 2), (3, 4), (5, 6), (7, 8),
                                          (1, 3)))
    # five goals, each up to 3 swaps of 2 cycles plus the slowest gate (4)
    assert instance.horizon == 5 * (3 * 2 + 4)


def test_horizon_two_stage():
    instance = Instance(chip=build_grid_chip(2), goals=((1, 4),), stages=2)
    single = 1 * ((2 * 2 - 3) * 2 + 4)
    assert instance.horizon == 2 * single + 1


def test_horizon_no_goals():
    chip = build_grid_chip(2)
    assert Instance(chip=chip, goals=()).horizon == 0
    assert Instance(chip=chip, goals=(), stages=2).horizon == 1


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


def test_goal_indexing(chip):
    instance = Instance(chip=chip, goals=((1, 2), (3, 4)), stages=2)
    assert instance.goal_count == 2
    assert instance.total_goals == 4
    assert instance.goal_pairs[1] == (1, 2)
    assert instance.goal_pairs[3] == (1, 2)   # stage-2 duplicate
    assert instance.goal_stage(2) == 1
    assert instance.goal_stage(4) == 2


def test_goal_tables(chip):
    instance = Instance(chip=chip, goals=((3, 1), (1, 2)), stages=2)
    assert instance.goal_pairs == {1: (3, 1), 2: (1, 2), 3: (3, 1), 4: (1, 2)}
    assert instance.state_goals == {1: (1, 2, 3, 4), 2: (2, 4), 3: (1, 3),
                                    4: ()}
    assert instance.goal_states == (1, 2, 3)
    assert instance.goal_states is instance.goal_states   # computed once


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


DATA = resources.files("qcsched.data")
CHIPS = [build_grid_chip(2), build_grid_chip(3, "all-blue"),
         build_preset_chip("rigetti-8"), build_preset_chip("rigetti-21")]


@settings(max_examples=60, deadline=None)
@given(chip=st.sampled_from(CHIPS), goals=st.integers(0, 6),
       stages=st.sampled_from((1, 2)), variant=st.sampled_from(VARIANTS),
       seed=st.integers(0, 2**32 - 1))
def test_instance_roundtrip_property(tmp_path_factory, chip, goals, stages,
                                     variant, seed):
    instance = generate_instance(chip, goals, stages, variant, seed)
    path = tmp_path_factory.mktemp("rt") / "inst.json"
    write_instance(instance, path)
    again = read_instance(path)
    assert again == instance
    assert again.horizon == instance.horizon


def _legacy_dict(variant, initial_mapping):
    d = json.loads((DATA / "example-instance.json").read_text())
    d["chip"]["side_length"] = 3
    d["variant"] = variant
    d["initial_mapping"] = initial_mapping
    return d


def test_legacy_keys_still_load(tmp_path):
    path = tmp_path / "legacy.json"
    for variant, placement in (("qcc", "identity"), ("qcc-i", "free"),
                               ("qcc-x", "identity")):
        path.write_text(json.dumps(_legacy_dict(variant, placement)))
        instance = read_instance(path)
        assert instance.variant == variant
        assert instance.chip == build_preset_chip("rigetti-8")


def test_contradicting_initial_mapping_rejected(tmp_path):
    path = tmp_path / "bad.json"
    for variant, placement in (("qcc", "free"), ("qcc-i", "identity"),
                               ("qcc-x", "free"), ("qcc", "random")):
        path.write_text(json.dumps(_legacy_dict(variant, placement)))
        with pytest.raises(ValidationError, match="initial_mapping"):
            read_instance(path)


def test_content_digest_is_pinned():
    """A stored bench cell is reused only while its instance's digest holds,
    so a change to the file form must not move these."""
    assert worked_example()[0].content_digest == "0335e177d1cd"
    instance = generate_instance(build_preset_chip("rigetti-21"), 10, 2,
                                 "qcc-i", seed=3)
    assert instance.content_digest == "fd00b81eca24"


def test_file_form_is_the_fields_by_name(tmp_path):
    instance = generate_instance(build_grid_chip(2), 2, 2, "qcc-x", seed=1,
                                 label="kept-out")
    data = to_json(instance)
    assert list(data) == ["chip", "goals", "stages", "variant"]
    assert data["goals"] == [list(g) for g in instance.goals]
    assert data["chip"]["edges"][0] == {
        "u": 1, "v": 2, "ps_color": BLUE, "ps_duration": 3,
        "swap_enabled": True}
    path = tmp_path / "stem.json"
    write_instance(instance, path)
    assert json.loads(path.read_text()) == data
    assert read_instance(path).label == "stem"


def test_chip_records_round_trip_every_field():
    """A field added to ``Edge``, ``Chip`` or ``Instance`` must be set
    here, or this test fails."""
    edge = Edge(u=1, v=3, ps_color=RED, ps_duration=5, swap_enabled=False)
    assert_round_trips(edge, lambda d: from_json(Edge, d, "edge"))
    chip = Chip(qubit_count=3, edges=(edge, Edge(2, 3, BLUE, 3)),
                swap_duration=3, mix_duration=2)
    assert_round_trips(chip, _chip_from_dict)
    instance = Instance(chip=chip, goals=((1, 2), (2, 3)), stages=2,
                        variant=QCC_X, label="stem")
    assert_round_trips(instance, lambda d: _instance_from_dict(d, "stem"))
    assert _instance_from_dict(to_json(instance), "stem").label == "stem"


def test_chip_decode_reads_each_record_layout_once(monkeypatch):
    # decoding works out a record class's fields once, not once per record
    data, calls = to_json(build_preset_chip("rigetti-21")), []

    def counted(cls):
        calls.append(cls)
        return dataclasses.fields(cls)

    monkeypatch.setattr(instance_module, "fields", counted)
    chips = [_chip_from_dict(data), _chip_from_dict(data)]
    assert chips[0] == chips[1] == build_preset_chip("rigetti-21")
    assert calls.count(Edge) <= 1 and calls.count(Chip) <= 1


def test_read_instance_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="bad.json: not valid JSON"):
        read_instance(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"goals": []}))
    with pytest.raises(ParseError, match="missing.json: missing field"):
        read_instance(missing)


def test_crosstalk_zone():
    chip = build_preset_chip("rigetti-8")
    zone = chip.crosstalk_zones[1][2]
    assert 1 not in zone and 2 not in zone
    expected = (set(chip.neighbors[1]) | set(chip.neighbors[2])) - {1, 2}
    assert zone == frozenset(expected)
