import random

import pytest

from qcsched.hybrid import (ENGINES, read_report, report_from_dict,
                            report_to_dict, run_engine, write_report)
from qcsched.instance import build_grid_chip, build_preset_chip, generate_instance
from qcsched.schedule import validate


@pytest.fixture
def instance():
    chip = build_grid_chip(2)
    return generate_instance(chip, 2, stages=1, variant="qcc", seed=9)


def test_half_pipeline(instance):
    report = run_engine(instance, "half", budget_s=1.0, seed=1)
    assert report.status == "solved"
    assert report.engine == "half"
    assert report.stage1 and report.handoff is not None
    assert report.final.objective() <= report.handoff.objective()
    assert validate(instance, report.final).valid
    assert report.delta is not None and report.delta >= 0
    # the handoff happens near the midpoint of the budget
    assert 0.4 <= report.stage2_start_s <= 0.95


def test_last_pipeline(instance):
    report = run_engine(instance, "last", budget_s=1.0, seed=1)
    assert report.status == "solved"
    last_stage1 = report.stage1[-1]
    assert report.final.objective() <= (last_stage1.makespan,
                                        last_stage1.swap_count)
    assert report.stage2_start_s == last_stage1.t
    assert report.delta >= 0


def test_standalone_router(instance):
    report = run_engine(instance, "router", budget_s=0.3, seed=2)
    assert report.status == "solved"
    assert report.final.makespan == report.stage1[-1].makespan
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
    for engine in ENGINES:
        for budget_s in (0, -1):
            with pytest.raises(ValueError):
                run_engine(instance, engine, budget_s=budget_s)


def test_stage_seeds_deterministic(instance):
    # every engine stores the one router seed, derived from the seed alone
    expected = (random.Random(42).getrandbits(32),)
    for engine in ENGINES:
        report = run_engine(instance, engine, 0.05, seed=42, node_budget=50)
        assert report.stage_seeds == expected
    assert run_engine(instance, "router", 0.05, seed=43).stage_seeds \
        != expected


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
    assert report_to_dict(again) == report_to_dict(report)
    assert again.final == report.final
    assert again.stage1 == report.stage1


def test_report_dict_defaults():
    report = report_from_dict({"instance_id": "x", "engine": "cp",
                               "budget_s": 1.0, "seed": 0})
    assert report.status == "unsolved"
    assert report.final is None
