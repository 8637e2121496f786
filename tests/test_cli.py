import json
from pathlib import Path

import pytest

from qcsched.cli import main


def _read_bytes(path):
    return path.read_bytes()


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ["gen", "--chip", "grid:2", "--goals", "2", "--count", "2",
            "--seed", "5", "--label", "t"]
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4
    files_a = sorted(a.glob("*.json"))
    files_b = sorted(b.glob("*.json"))
    assert len(files_a) == 2
    assert [_read_bytes(f) for f in files_a] == \
        [_read_bytes(f) for f in files_b]


def test_gen_density(tmp_path, capsys):
    assert main(["gen", "--chip", "grid:2", "--density", "0.5",
                 "--out-dir", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    data = json.loads(open(path).read())
    assert len(data["goals"]) == 3


def test_gen_requires_goal_count(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--chip", "grid:2", "--out-dir", str(tmp_path)])


def test_unknown_chip(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--chip", "hexagon-99", "--goals", "1",
              "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("spec", ["grid:x", "grid:1", "grid:3:plaid"])
def test_bad_grid_spec_exits_cleanly(tmp_path, spec):
    with pytest.raises(SystemExit, match=f"unknown chip '{spec}'"):
        main(["gen", "--chip", spec, "--goals", "1",
              "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("argv", [
    ["solve", "{instance}", "--budget", "0"],
    ["solve", "{instance}", "--budget", "-1"],
    ["solve", "{instance}", "--budget", "inf"],
    ["solve", "{instance}", "--budget", "nan"],
    ["solve", "{instance}", "--node-budget", "-5"],
    ["bench", "--chip", "grid:2", "--goals", "1", "--engine", "router",
     "--budget", "-1"],
    ["bench", "--chip", "grid:2", "--goals", "1", "--engine", "router",
     "--budget", "inf"],
    ["bench", "--chip", "grid:2", "--goals", "1", "--engine", "router",
     "--count", "0"],
    ["gen", "--chip", "grid:2", "--goals", "-2"],
    ["gen", "--chip", "rigetti-8", "--goals", "100"],
    ["gen", "--chip", "grid:2", "--density", "1.5"],
    ["gen", "--chip", "grid:2", "--goals", "1", "--count", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_out_of_range_numbers_exit_with_an_error(tmp_path, capsys, argv):
    assert main(["gen", "--chip", "grid:2", "--goals", "1",
                 "--out-dir", str(tmp_path)]) == 0
    instance = capsys.readouterr().out.strip()
    out = tmp_path / "out"
    argv = [a.format(instance=instance) for a in argv] + \
        ["--out-dir", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code not in (0, None)
    assert not out.exists()


def test_solve_validate_gantt_pipeline(tmp_path, capsys):
    assert main(["gen", "--chip", "grid:2", "--goals", "2", "--seed", "1",
                 "--out-dir", str(tmp_path)]) == 0
    instance_path = capsys.readouterr().out.strip()

    out = tmp_path / "runs"
    assert main(["solve", instance_path, "--engine", "cp", "--budget", "5",
                 "--out-dir", str(out)]) == 0
    solve_out = capsys.readouterr().out
    assert "makespan=" in solve_out
    schedules = list(out.glob("*-schedule.json"))
    reports = list(out.glob("*-report.json"))
    assert len(schedules) == 1 and len(reports) == 1

    assert main(["validate", instance_path, str(schedules[0])]) == 0
    assert "valid:" in capsys.readouterr().out

    svg_path = tmp_path / "chart.svg"
    assert main(["gantt", instance_path, str(schedules[0]),
                 "--format", "svg", "--out", str(svg_path)]) == 0
    capsys.readouterr()
    assert svg_path.read_text().startswith("<svg")

    assert main(["gantt", instance_path, str(schedules[0])]) == 0
    assert "makespan=" in capsys.readouterr().out


def test_unsolved_run_prints_the_search_status(tmp_path, capsys):
    assert main(["gen", "--chip", "rigetti-8", "--goals", "4", "--variant",
                 "qcc-x", "--stages", "2", "--seed", "3",
                 "--out-dir", str(tmp_path)]) == 0
    instance_path = capsys.readouterr().out.strip()
    assert main(["solve", instance_path, "--engine", "cp",
                 "--node-budget", "1", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "unsolved (timeout)\n"


@pytest.mark.parametrize("engine", ["router", "cp", "half", "last"])
def test_unroutable_goal_exits_with_one_line(tmp_path, engine):
    # no edge of the path 1-2-3 can swap, so states 1 and 3 never meet
    edges = [{"u": u, "v": u + 1, "ps_color": "blue", "ps_duration": 3,
              "swap_enabled": False} for u in (1, 2)]
    path = tmp_path / "apart.json"
    path.write_text(json.dumps({"chip": {"qubit_count": 3, "edges": edges},
                                "goals": [[1, 3]], "stages": 1,
                                "variant": "qcc"}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--engine", engine, "--budget", "0.2",
              "--out-dir", str(out)])
    message = str(exc.value.code)
    assert message.startswith(f"{path}: ") and "\n" not in message
    assert "swap" in message and not out.exists()


def test_validate_rejects_corrupted(tmp_path, capsys):
    assert main(["gen", "--chip", "grid:2", "--goals", "1", "--seed", "2",
                 "--out-dir", str(tmp_path)]) == 0
    instance_path = capsys.readouterr().out.strip()
    out = tmp_path / "runs"
    assert main(["solve", instance_path, "--engine", "router",
                 "--budget", "0.2", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    schedule_path = next(out.glob("*-schedule.json"))
    data = json.loads(schedule_path.read_text())
    data["makespan"] += 1           # stored objective no longer matches
    schedule_path.write_text(json.dumps(data))

    assert main(["validate", instance_path, str(schedule_path)]) == 1
    assert "R8" in capsys.readouterr().out

    assert main(["gantt", instance_path, str(schedule_path)]) == 1
    assert "invalid schedule" in capsys.readouterr().err


def test_bench_writes_table(tmp_path, capsys):
    out = tmp_path / "bench"
    args = ["bench", "--chip", "grid:2", "--goals", "1", "--count", "2",
            "--engine", "router", "--engine", "cp", "--budget", "0.2",
            "--variant", "qcc", "--variant", "qcc-x",
            "--out-dir", str(out)]
    assert main(args) == 0
    table = (out / "table.txt").read_text()
    assert table == capsys.readouterr().out
    assert "qcc/s1" in table and "qcc-x/s1" in table
    assert "router" in table and "cp" in table


def test_bench_runs_each_repeated_flag_once(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--chip", "grid:2", "--goals", "2", "--count", "2",
                 "--variant", "qcc", "--variant", "qcc",
                 "--engine", "router", "--engine", "router",
                 "--budget", "0.05", "--out-dir", str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:4] for row in rows] == [
        ["qcc/s1", "router", "1.00", "(2)"]]
    assert len(list(out.glob("*.json"))) == 2


def test_bench_exits_nonzero_on_errors(tmp_path, capsys, monkeypatch):
    from qcsched import bench

    def broken(*args, **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(bench, "run_engine", broken)
    out = tmp_path / "bench"
    assert main(["bench", "--chip", "grid:2", "--goals", "1", "--count", "2",
                 "--engine", "cp", "--budget", "0.2",
                 "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    table = (out / "table.txt").read_text()
    assert table == captured.out
    assert table.splitlines()[1].split()[-1] == "2"
    assert "2 cell(s) raised" in captured.err



def _edit(change):
    """Rewrite a JSON file with ``change`` applied to its data."""
    def apply(path):
        data = json.loads(path.read_text())
        change(data)
        path.write_text(json.dumps(data))
    return apply


def _first_task(**fields):
    return _edit(lambda data: data["tasks"][0].update(fields))


def _drop(field):
    return _edit(lambda data: data.pop(field))


def _set(**fields):
    return _edit(lambda data: data.update(fields))


def _write(data):
    return lambda path: path.write_bytes(data)


def _chip(**fields):
    return _edit(lambda data: data["chip"].update(fields))


def _first_edge(**fields):
    return _edit(lambda data: data["chip"]["edges"][0].update(fields))


# id: (command, file it breaks, how, what the message says)
MALFORMED = {
    "start": ("validate", "schedule", _first_task(start="0"), "task start"),
    "goal_index": ("validate", "schedule", _first_task(goal_index="1"),
                   "task goal_index"),
    "duration": ("validate", "schedule", _first_task(duration=None),
                 "task duration"),
    "kind": ("validate", "schedule", _first_task(kind=3), "kind 3"),
    "location": ("validate", "schedule", _first_task(location=[1, "2"]),
                 "task location"),
    "makespan": ("validate", "schedule", _set(makespan="5"),
                 "makespan '5'"),
    "swap_count": ("gantt", "schedule", _set(swap_count=None),
                   "swap_count None"),
    "no-tasks": ("validate", "schedule", _drop("tasks"), "'tasks'"),
    "tasks": ("validate", "schedule", _set(tasks=3), "tasks 3"),
    "no-schedule": ("validate", "schedule", Path.unlink, "No such file"),
    "not-utf8": ("validate", "schedule", _write(b'{"tasks": "\xff"}'),
                 "not valid JSON: 'utf-8' codec"),
    "too-deep": ("validate", "schedule", _write(b"[" * 200000),
                 "not valid JSON: maximum recursion depth"),
    "no-chip": ("validate", "instance", _drop("chip"), "'chip'"),
    "no-stages": ("validate", "instance", _drop("stages"), "'stages'"),
    "no-variant": ("validate", "instance", _drop("variant"), "'variant'"),
    "gantt-start": ("gantt", "schedule", _first_task(start="0"), "task start"),
    "gantt-no-instance": ("gantt", "instance", Path.unlink, "No such file"),
    "solve-no-chip": ("solve", "instance", _drop("chip"), "'chip'"),
    "solve-no-instance": ("solve", "instance", Path.unlink, "No such file"),
    "goal-state": ("solve", "instance", _set(goals=[[1, "a"]]),
                   "goal state 'a'"),
    "goal-bool": ("solve", "instance", _set(goals=[[True, 2]]),
                  "goal state True"),
    "goals": ("solve", "instance", _set(goals=7), "goals 7"),
    "stages": ("solve", "instance", _set(stages="1"), "stages '1'"),
    "qubit_count": ("solve", "instance", _chip(qubit_count="4"),
                    "qubit_count '4'"),
    "edges": ("solve", "instance", _chip(edges=5), "edges 5"),
    "swap_duration": ("solve", "instance", _chip(swap_duration="2"),
                      "swap_duration '2'"),
    "edge-u": ("solve", "instance", _first_edge(u="1"), "edge u '1'"),
    "ps_duration": ("solve", "instance", _first_edge(ps_duration="3"),
                    "ps_duration '3'"),
    "swap_enabled": ("solve", "instance", _first_edge(swap_enabled="false"),
                     "swap_enabled 'false'"),
    "no-edges": ("solve", "instance",
                 _set(chip={"qubit_count": 1, "edges": []}, goals=[]),
                 "no edges"),
}


@pytest.mark.parametrize("command,target,corrupt,says", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_input_exits_with_one_line(tmp_path, capsys, command,
                                             target, corrupt, says):
    assert main(["gen", "--chip", "grid:2", "--goals", "1", "--seed", "2",
                 "--out-dir", str(tmp_path)]) == 0
    instance = Path(capsys.readouterr().out.strip())
    out = tmp_path / "runs"
    assert main(["solve", str(instance), "--engine", "router",
                 "--budget", "0.2", "--out-dir", str(out)]) == 0
    capsys.readouterr()
    files = {"instance": instance,
             "schedule": next(out.glob("*-schedule.json"))}
    corrupt(files[target])
    argv = ["solve", str(instance), "--out-dir", str(out)] \
        if command == "solve" else [command, str(instance),
                                    str(files["schedule"])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert str(files[target]) in message and "\n" not in message
    assert says in message
