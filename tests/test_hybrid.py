import math

import pytest

from qcsched.hybrid import (ENGINES, RunReport, read_report,
                            report_from_dict, run_engine, write_report)
from qcsched.instance import (ParseError, build_grid_chip, build_preset_chip,
                              generate_instance, to_json)
from qcsched.schedule import Incumbent, improvement_delta, validate
from tasks import assert_round_trips


@pytest.fixture
def instance():
    chip = build_grid_chip(2)
    return generate_instance(chip, 2, stages=1, variant="qcc", seed=9)


def test_half_pipeline(instance):
    report = run_engine(instance, "half", budget_s=1.0, seed=1)
    assert report.status == "solved"
    assert report.engine == "half"
    assert report.trace[0].source == "baseline" and report.handoff is not None
    assert report.final.objective() <= report.handoff.objective()
    assert validate(instance, report.final).valid
    assert report.delta is not None and report.delta >= 0
    # the handoff happens near the midpoint of the budget
    assert 0.4 <= report.stage2_start_s <= 0.95


def test_last_pipeline(instance):
    report = run_engine(instance, "last", budget_s=1.0, seed=1)
    assert report.status == "solved"
    last_routed = [p for p in report.trace if p.source != "cp"][-1]
    assert report.final.objective() <= (last_routed.makespan,
                                        last_routed.swap_count)
    assert report.stage2_start_s == last_routed.t
    assert report.delta >= 0


def test_standalone_router(instance):
    report = run_engine(instance, "router", budget_s=0.3, seed=2)
    assert report.status == "solved"
    assert report.final.makespan == report.trace[-1].makespan
    assert report.delta is None


def test_standalone_cp(instance):
    report = run_engine(instance, "cp", budget_s=5.0, seed=2)
    assert report.cp_status == "optimal"
    assert validate(instance, report.final).valid


def test_engine_dispatch(instance):
    assert run_engine(instance, "last", 0.5, seed=0).engine == "last"
    with pytest.raises(ValueError):
        run_engine(instance, "magic", 0.5)


def test_budget_must_be_positive(instance):
    # and finite: an infinite budget never ends a router stage, and a
    # search never times out on a nan one
    for engine in ENGINES:
        for budget_s in (0, -1, math.inf, math.nan):
            with pytest.raises(ValueError):
                run_engine(instance, engine, budget_s=budget_s)


def test_dominance_across_variants():
    chips = [build_grid_chip(2), build_preset_chip("rigetti-8")]
    for chip in chips:
        for variant in ("qcc", "qcc-i", "qcc-x"):
            for stages in (1, 2):
                instance = generate_instance(chip, 2, stages=stages,
                                             variant=variant, seed=5)
                for engine in ("half", "last"):
                    report = run_engine(instance, engine, budget_s=0.4,
                                        seed=5)
                    assert report.final.objective() <= \
                        report.handoff.objective()
                    assert validate(instance, report.final).valid


def test_report_roundtrip(tmp_path, instance):
    report = run_engine(instance, "half", budget_s=0.5, seed=3)
    path = tmp_path / "report.json"
    write_report(report, path)
    again = read_report(path)
    assert to_json(again) == to_json(report)
    assert again.final == report.final
    assert again.trace == report.trace
    # reports written while they kept a stage_seeds list, two stage lists
    # and a stored delta still load
    older = {**to_json(report), "stage_seeds": [7], "stage1": [],
             "stage2": [], "delta": 12.5}
    assert to_json(report_from_dict(older)) == to_json(report)


def test_report_dict_defaults():
    report = report_from_dict({"instance_id": "x", "engine": "cp",
                               "budget_s": 1.0, "seed": 0})
    assert report.status == "unsolved"
    assert report.final is None and report.trace == []


def test_read_report_errors_name_the_file(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text('{"engine": "cp"}')
    with pytest.raises(ParseError, match="cell.json: missing field "
                                         "'instance_id'"):
        read_report(path)
    path.write_text('{"engine": ')
    with pytest.raises(ParseError, match="cell.json: not valid JSON"):
        read_report(path)


@pytest.mark.parametrize("change,says", [
    ({"status": 5}, "status 5"),
    ({"seed": True}, "seed True"),
    ({"seed": 1.5}, "seed 1.5"),
    ({"budget_s": "1"}, "budget_s '1'"),
    ({"node_budget": False}, "node_budget False"),
    ({"trace": 5}, "trace 5"),
    ({"trace": [{"t": 0, "makespan": "9", "swap_count": 1,
                 "source": "baseline"}]}, "makespan '9'"),
    ({"final": []}, "final"),
    ({"final": {"tasks": [], "makespan": 0, "swap_count": 0,
                "instance_id": 3}}, "instance_id 3"),
])
def test_report_fields_are_read_by_declared_type(change, says):
    base = {"instance_id": "x", "engine": "cp", "budget_s": 1.0, "seed": 0}
    with pytest.raises(ParseError, match=says):
        report_from_dict({**base, **change})
    # an int is a float, and an optional field may be null; a trace point
    # stored before points kept nodes has 0, and a "build" key, which no
    # report writes, is ignored
    point = {"t": 0, "makespan": 9, "swap_count": 1, "source": "cp"}
    report = report_from_dict({**base, "budget_s": 2, "node_budget": None,
                               "trace": [point, {**point, "nodes": 7,
                                                 "build": "object"}]})
    assert report.budget_s == 2 and report.trace == [
        Incumbent(0, 9, 1, "cp"), Incumbent(0, 9, 1, "cp", nodes=7)]
    assert report.trace[1].build is None


def test_report_round_trips_every_field(instance):
    """Every field is written under its own name and read back; a field
    added to ``RunReport`` must be set here, or this test fails."""
    solved = run_engine(instance, "half", budget_s=0.5, seed=3)
    report = RunReport(
        instance_id="x", engine="half", budget_s=2.5, seed=7,
        trace=[Incumbent(0.01, 9, 4, "baseline"),
               Incumbent(0.02, 8, 3, "greedy"),
               Incumbent(1.5, 7, 2, "cp", nodes=31)],
        stage2_start_s=1.25, handoff=solved.handoff, final=solved.final,
        status="solved", cp_status="timeout", nodes=40, node_budget=50,
        instance_digest="abc")
    assert_round_trips(report, report_from_dict)


def test_trace_is_one_clock_and_delta_is_derived(instance):
    # the router's incumbents, then the search's, on the run's clock
    improvable = generate_instance(build_preset_chip("rigetti-8"), 3,
                                   stages=1, variant="qcc", seed=10)
    half = run_engine(improvable, "half", budget_s=0.5, seed=3,
                      node_budget=200)
    sources = [p.source for p in half.trace]
    assert sources[0] == "baseline" and sources[-1] == "cp"
    cut = half.stage2_start_s
    assert all(p.t <= cut for p in half.trace if p.source != "cp")
    assert all(p.t >= cut for p in half.trace if p.source == "cp")
    assert half.delta == improvement_delta(half.handoff.makespan,
                                           half.final.makespan) > 0
    # the router's points visit no nodes; the search's count its nodes
    assert all(p.nodes == 0 for p in half.trace if p.source != "cp")
    nodes = [p.nodes for p in half.trace if p.source == "cp"]
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    assert 0 < nodes[-1] <= half.nodes
    assert half.trace[-1].schedule == half.final
    cp = run_engine(instance, "cp", budget_s=5.0, seed=3)
    assert cp.stage2_start_s is None
    assert cp.trace and {p.source for p in cp.trace} == {"cp"}
    for report in (cp, run_engine(instance, "router", budget_s=0.3, seed=3)):
        assert report.delta is None
