"""Checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from qcsched.instance import generate_instance  # noqa: E402
from qcsched.oracle import optimal_makespan  # noqa: E402

SMALL = [("grid:2", g, v) for g in (1, 2, 3) for v in workloads.VARIANTS] + \
        [("rigetti-8", g, v) for g in (2, 3, 4) for v in ("qcc", "qcc-x")] + \
        [("grid:3", g, v) for g in (1, 2) for v in ("qcc", "qcc-x")]


@pytest.mark.parametrize("chip,goals,variant", SMALL)
def test_bounds_enclose_the_oracle_optimum(chip, goals, variant):
    for seed in range(3):
        instance = generate_instance(workloads.load_chip(chip), goals,
                                     stages=1, variant=variant, seed=seed)
        best = optimal_makespan(instance)
        assert workloads.lower_bound(instance) <= best \
            <= workloads.upper_bound(instance)


def _cells_and_budget():
    workload = workloads.WORKLOADS["suite"]
    # Every fifth cell cycles through all four engines and every chip.
    return workloads.build_cells(workload, 0)[::5], workload.budget


def test_same_seed_gives_identical_cells():
    cells, budget = _cells_and_budget()
    again, _ = _cells_and_budget()
    assert [(c.instance, c.seed, c.engine) for c in cells] == \
        [(c.instance, c.seed, c.engine) for c in again]
    first = [workloads.run_cell(c, budget)[0].key() for c in cells]
    second = [workloads.run_cell(c, budget)[0].key() for c in again]
    assert first == second
    assert {c.engine for c in cells} == {"router", "cp", "half", "last"}


def test_traced_pass_counts_each_call():
    workload = workloads.WORKLOADS["suite"]
    budget = workload.budget
    cells = workloads.build_cells(workload, 0)[:4]      # one instance
    assert [c.engine for c in cells] == ["router", "cp", "half", "last"]
    tracer = tracing.Tracer()
    outcomes = []
    with tracer.installed():
        for cell in cells:
            tracer.cell = cell.cid
            with tracer.span("cell"):
                outcomes.append(workloads.run_cell(cell, budget)[0])
    metrics = {k: v for k, (v, _, _) in
               tracing.layer_metrics(tracer.spans).items()}
    r = budget.restarts
    assert metrics["router.restarts"] == r + r // 2 + r
    assert metrics["cpsolver.searches"] == 3
    assert metrics["schedule.validate_calls"] == \
        sum(o.makespan is not None for o in outcomes)
    assert all(t >= -1e-9 for t in tracing.self_times(tracer.spans).values())
    assert all(s.cell is not None for s in tracer.spans)
    assert workloads.router.solve_greedy.__name__ == "solve_greedy"
