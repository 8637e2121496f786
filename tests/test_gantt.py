import pytest

from qcsched.fixtures import worked_example
from qcsched.gantt import render, render_svg, render_text
from qcsched.instance import Instance, build_grid_chip, generate_instance
from qcsched.router import solve_greedy
from qcsched.schedule import Schedule
from tasks import ps_task, swap_task


@pytest.fixture
def example():
    return worked_example()


def test_text_layout(example):
    instance, schedule = example
    text = render_text(instance, schedule)
    lines = text.splitlines()
    assert lines[0].endswith("|01234")
    assert "n1 |SSBBB" in lines
    assert "n2 |SSBBB" in lines
    assert "n3 |SS..." in lines
    assert "n4 |SS..." in lines
    assert "n8 |....." in lines
    assert lines[-1] == "makespan=5 swaps=2"


def test_text_empty_schedule():
    chip = build_grid_chip(2)
    instance = Instance(chip=chip, goals=())
    text = render_text(instance, Schedule.from_tasks([]))
    assert "n1 |." in text
    assert "makespan=0 swaps=0" in text


def test_invalid_schedule_refused(example):
    instance, schedule = example
    broken = Schedule.from_tasks(list(schedule.tasks)[:-1])  # ps dropped
    with pytest.raises(ValueError, match="invalid schedule"):
        render_text(instance, broken)
    with pytest.raises(ValueError, match="invalid schedule"):
        render_svg(instance, broken)


def test_crosstalk_blocked_cells():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 2),), variant="qcc-x")
    schedule = Schedule.from_tasks([ps_task(1, 2, 0, 3, 1)])
    text = render_text(instance, schedule)
    assert "n3 |xxx" in text
    assert "n4 |xxx" in text
    svg = render_svg(instance, schedule)
    assert ">x</text>" in svg


def test_free_placement_row_labels():
    chip = build_grid_chip(2)
    instance = generate_instance(chip, 2, stages=1, variant="qcc-i", seed=1)
    schedule = solve_greedy(instance, seed=1)
    text = render_text(instance, schedule)
    assert "<s" in text


def test_mix_and_red_chars():
    chip = build_grid_chip(2)  # alternating coloring has a red edge
    instance = generate_instance(chip, 2, stages=2, variant="qcc", seed=0)
    schedule = solve_greedy(instance, seed=0)
    text = render_text(instance, schedule)
    assert "M" in text


def test_svg_structure(example):
    instance, schedule = example
    svg = render_svg(instance, schedule)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<rect" in svg
    assert "makespan=5 swaps=2" in svg


def test_render_is_deterministic(example):
    instance, schedule = example
    assert render(instance, schedule, "text") == render(instance, schedule,
                                                        "text")
    assert render(instance, schedule, "svg") == render(instance, schedule,
                                                       "svg")
    with pytest.raises(ValueError):
        render(instance, schedule, "png")


def test_trailing_swap_extends_chart(example):
    instance, schedule = example
    longer = Schedule.from_tasks(list(schedule.tasks)
                                 + [swap_task(1, 4, 5, 2)])
    text = render_text(instance, longer)
    assert text.splitlines()[0].endswith("|0123456")
    assert "n4 |SS...SS" in text
    assert "makespan=5 swaps=3" in text
