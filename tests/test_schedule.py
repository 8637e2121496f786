import json
from dataclasses import replace

import pytest

from qcsched.fixtures import worked_example
from qcsched.instance import Instance, build_grid_chip, build_preset_chip
from qcsched.schedule import (GateTask, Schedule, _task_from_dict,
                              _task_to_dict, improvement_delta, init_task,
                              mix_task, ps_task, read_schedule,
                              schedule_from_dict, schedule_to_dict, score,
                              swap_task, validate, write_schedule)


@pytest.fixture
def example():
    return worked_example()


def test_gate_task_contract():
    """A task is an immutable tuple of its six fields, in order."""
    swap = swap_task(4, 1, 0, 2)
    assert repr(swap) == ("GateTask(kind='swap', location=(1, 4), start=0, "
                          "duration=2, goal_index=None, state=None)")
    mix = GateTask(kind="mix", location=3, start=4, duration=1, state=3)
    assert mix.goal_index is None
    assert (mix.end, mix.qubits, swap.qubits) == (5, (3,), (1, 4))
    with pytest.raises(AttributeError):
        mix.start = 5
    same = GateTask("mix", 3, 4, 1, None, 3)
    assert same == mix and hash(same) == hash(mix)
    assert mix == ("mix", 3, 4, 1, None, 3)
    assert mix != mix_task(3, 4, 1, 4)
    assert mix._replace(start=6) == GateTask("mix", 3, 6, 1, state=3)
    assert mix.start == 4
    for task in (swap, mix, ps_task(2, 1, 3, 3, 1), init_task(5, 2)):
        again = _task_from_dict(json.loads(json.dumps(_task_to_dict(task))))
        assert again == task and type(again) is GateTask


def test_worked_example_is_valid(example):
    instance, schedule = example
    report = validate(instance, schedule)
    assert report.valid
    assert schedule.makespan == 5
    assert schedule.swap_count == 2


def _rebuild(schedule, tasks):
    return Schedule.from_tasks(tasks, instance_id=schedule.instance_id)


def test_overlap_flags_r1(example):
    instance, schedule = example
    extra = swap_task(1, 2, 0, 2)   # collides with the swap on (1, 4)
    bad = _rebuild(schedule, schedule.tasks + (extra,))
    assert "R1" in validate(instance, bad).rules()


def test_wrong_states_flag_r4(example):
    instance, schedule = example
    tasks = [t if t.kind != "ps" else ps_task(1, 2, 0, 3, 1)
             for t in schedule.tasks if t.kind != "swap"]
    bad = _rebuild(schedule, tasks)
    assert "R4" in validate(instance, bad).rules()


def test_missing_and_duplicate_ps_flag_r3(example):
    instance, schedule = example
    no_ps = _rebuild(schedule, [t for t in schedule.tasks if t.kind != "ps"])
    assert "R3" in validate(instance, no_ps).rules()
    dup = _rebuild(schedule, schedule.tasks + (ps_task(3, 5, 8, 3, 1),))
    assert "R3" in validate(instance, dup).rules()


def test_bad_duration_flags_r5(example):
    instance, schedule = example
    tasks = [t if t.kind != "ps" else ps_task(1, 2, 2, 4, 1)
             for t in schedule.tasks]
    assert "R5" in validate(instance, _rebuild(schedule, tasks)).rules()
    off_chip = _rebuild(schedule, schedule.tasks + (swap_task(1, 5, 0, 2),))
    assert "R5" in validate(instance, off_chip).rules()


def test_malformed_swaps_are_flagged_not_raised(example):
    """The R4 replay skips a swap off the chip's qubits instead of raising."""
    instance, schedule = example
    for loc in ((1, 99), (1, 2, 3)):
        extra = Schedule(schedule.tasks + (GateTask("swap", loc, 8, 2),), 5, 3)
        assert validate(instance, extra).rules() == {"R5"}


def test_crosstalk_flags_r2():
    chip = build_preset_chip("rigetti-8")
    instance = Instance(chip=chip, goals=((1, 2),), variant="qcc-x")
    # ps on (1,2) while a swap runs on (3,5): 3 neighbors 2, so it is blocked
    tasks = [ps_task(1, 2, 0, 3, 1), swap_task(3, 5, 0, 2)]
    report = validate(instance, Schedule.from_tasks(tasks))
    assert "R2" in report.rules()
    # same schedule is fine without the crosstalk rule
    plain = Instance(chip=chip, goals=((1, 2),))
    assert validate(plain, Schedule.from_tasks(tasks)).valid


def test_mix_rules_r6():
    chip = build_grid_chip(2)
    instance = Instance(chip=chip, goals=((1, 2),), stages=2)
    ps1 = ps_task(1, 2, 0, 3, 1)
    ps2 = ps_task(1, 2, 10, 3, 2)
    mixes = [mix_task(q, 4, 1, q) for q in chip.qubits]
    good = Schedule.from_tasks([ps1, ps2] + mixes)
    assert validate(instance, good).valid
    # a missing mix
    partial = Schedule.from_tasks([ps1, ps2] + mixes[:-1])
    assert "R6" in validate(instance, partial).rules()
    # mix of state 1 before its stage-1 goal finished
    early = [mix_task(1, 2, 1, 1)] + mixes[1:]
    assert "R6" in validate(instance, Schedule.from_tasks([ps1, ps2] + early)).rules()
    # any mix at all is illegal in a single-stage schedule
    single = Instance(chip=chip, goals=((1, 2),))
    bad = Schedule.from_tasks([ps1, mix_task(3, 5, 1, 3)])
    assert "R6" in validate(single, bad).rules()


def test_init_rules_r7():
    chip = build_grid_chip(2)
    free = Instance(chip=chip, goals=((1, 2),), variant="qcc-i")
    inits = [init_task(q, 5 - q) for q in chip.qubits]   # reversed placement
    ps = ps_task(3, 4, 0, 4, 1)                          # holds states 2, 1
    good = Schedule.from_tasks(inits + [ps])
    assert validate(free, good).valid
    assert "R7" in validate(free, Schedule.from_tasks(inits[:-1] + [ps])).rules()
    twice = Schedule.from_tasks(inits + [init_task(1, 4), ps])
    assert "R7" in validate(free, twice).rules()
    plain = Instance(chip=chip, goals=((1, 2),))
    stray = Schedule.from_tasks([ps_task(1, 2, 0, 3, 1), init_task(1, 1)])
    assert "R7" in validate(plain, stray).rules()


def test_stored_objective_flags_r8(example):
    instance, schedule = example
    lying = Schedule(schedule.tasks, makespan=4, swap_count=2)
    assert "R8" in validate(instance, lying).rules()
    lying2 = Schedule(schedule.tasks, makespan=5, swap_count=0)
    assert "R8" in validate(instance, lying2).rules()


def test_horizon_flags_r9(example):
    instance, schedule = example
    assert validate(instance, schedule, horizon=5).valid
    assert "R9" in validate(instance, schedule, horizon=4).rules()


def test_state_trace(example):
    """R4 replays the swaps: they leave state 4 on qubit 1 and state 3 on
    qubit 2, so a goal gate on (1, 2) after them meets states 3 and 4, not
    the states 1 and 2 that those qubits held at the start."""
    instance, schedule = example
    assert validate(instance, schedule).valid      # goal (3, 4) on (1, 2)
    stale = replace(instance, goals=((1, 2),))
    report = validate(stale, schedule)
    assert report.rules() == {"R4"}
    assert report.violations[0].detail == \
        "task 2: goal 1 needs states (1, 2), qubits (1, 2) hold (4, 3)"


def test_score_and_delta():
    assert score(5, 5) == 1.0
    assert score(5, 10) == 0.5
    assert improvement_delta(10, 5) == 50.0
    assert improvement_delta(26, 27) == pytest.approx(-3.8461538461538463)
    for fn in (score, improvement_delta):
        with pytest.raises(ValueError):
            fn(0, 5)
        with pytest.raises(ValueError):
            fn(5, 0)


def test_schedule_roundtrip(tmp_path, example):
    _, schedule = example
    path = tmp_path / "sched.json"
    write_schedule(schedule, path)
    again = read_schedule(path)
    assert again == schedule
    assert schedule_from_dict(schedule_to_dict(schedule)) == schedule


def test_total_span_vs_makespan():
    tasks = [ps_task(1, 2, 0, 3, 1), swap_task(3, 4, 4, 2)]
    s = Schedule.from_tasks(tasks)
    assert s.makespan == 3       # trailing swap does not count
    assert s.total_span == 6
    assert s.objective() == (3, 1)
