import pytest

from qcsched import bench
from qcsched.bench import (MatrixResult, gen_suite, goals_from_density,
                           run_matrix)
from qcsched.hybrid import read_report
from qcsched.instance import build_grid_chip


@pytest.fixture
def chip():
    return build_grid_chip(2)


def test_goals_from_density(chip):
    assert goals_from_density(chip, 0.0) == 0
    assert goals_from_density(chip, 1.0) == 6
    assert goals_from_density(chip, 0.5) == 3
    with pytest.raises(ValueError):
        goals_from_density(chip, 1.5)


def test_gen_suite_deterministic(chip):
    a = gen_suite(chip, 3, 2, "qcc", 1, seed=7)
    b = gen_suite(chip, 3, 2, "qcc", 1, seed=7)
    assert [i.goals for i in a] == [i.goals for i in b]
    assert len({i.instance_id for i in a}) == 3


def test_run_matrix_and_resume(tmp_path, chip):
    suite = gen_suite(chip, 2, 2, "qcc", 1, seed=1)
    out = tmp_path / "run"
    result = run_matrix(suite, ["router", "half"], budget_s=0.3, out_dir=out,
                        seed=1)
    files = sorted(out.glob("*.json"))
    assert len(files) == 4
    table = result.table()
    assert "router" in table and "half" in table and "qcc/s1" in table
    # resuming reuses the stored reports and reproduces the table
    mtimes = {f: f.stat().st_mtime_ns for f in files}
    again = run_matrix(suite, ["router", "half"], budget_s=0.3, out_dir=out,
                       seed=1)
    assert again.table() == table
    assert {f: f.stat().st_mtime_ns for f in files} == mtimes


def test_scores_bounded_by_one(tmp_path, chip):
    suite = gen_suite(chip, 3, 2, "qcc", 1, seed=3)
    result = run_matrix(suite, ["router", "cp"], budget_s=0.5,
                        out_dir=tmp_path, seed=3)
    best = result.best_known()
    for (iid, _), report in result.reports.items():
        if report.final is not None:
            assert best[iid] <= report.final.makespan
    for engine in ("router", "cp"):
        avg, solved, _, _, total = result.cell(engine, ("qcc", 1))
        assert solved == total == 3
        assert avg <= 1.0 + 1e-9


def test_single_engine_scores_one(tmp_path, chip):
    suite = gen_suite(chip, 2, 2, "qcc", 1, seed=4)
    result = run_matrix(suite, ["router"], budget_s=0.2, out_dir=tmp_path,
                        seed=4)
    avg, solved, _, _, _ = result.cell("router", ("qcc", 1))
    assert avg == pytest.approx(1.0)
    assert f"({solved})" in result.table()


def test_matrix_rejects_bad_input(tmp_path, chip):
    with pytest.raises(ValueError):
        run_matrix([], ["router"], 1.0, tmp_path)
    suite = gen_suite(chip, 1, 1, "qcc", 1, seed=0)
    with pytest.raises(ValueError):
        run_matrix(suite, ["warp-drive"], 1.0, tmp_path)


def test_matrix_reports_round_trip(tmp_path, chip):
    suite = gen_suite(chip, 2, 1, "qcc", 1, seed=6)
    result = run_matrix(suite, ["router"], budget_s=0.2, out_dir=tmp_path,
                        seed=6)
    assert all(r.final is not None for r in result.reports.values())
    # stored reports round-trip through the file format
    for (iid, engine), report in result.reports.items():
        stored = read_report(tmp_path / f"{iid}-{engine}.json")
        assert stored.instance_id == report.instance_id


def test_errors_are_counted_not_scored(tmp_path, chip, monkeypatch):
    def broken(instance, engine, *args, **kwargs):
        if engine == "cp":
            raise RuntimeError("solver blew up")
        return real(instance, engine, *args, **kwargs)

    real = bench.run_engine
    monkeypatch.setattr(bench, "run_engine", broken)
    suite = gen_suite(chip, 2, 1, "qcc", 1, seed=8)
    result = run_matrix(suite, ["router", "cp"], budget_s=0.2,
                        out_dir=tmp_path, seed=8)
    assert result.errors("cp") == 2 and result.errors("router") == 0
    assert result.errors("cp", ("qcc", 1)) == 2
    report = read_report(tmp_path / f"{suite[0].instance_id}-cp.json")
    assert report.status == "error: RuntimeError: solver blew up"
    # the errored cell records the seed it ran with, so it can be re-run
    assert report.seed == bench._cell_seed(8, suite[0].instance_id, "cp")
    rows = {line.split()[1]: line.split()
            for line in result.table().splitlines()[1:]}
    assert rows["cp"][-1] == "2" and rows["router"][-1] == "0"
