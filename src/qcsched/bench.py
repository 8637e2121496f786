"""Benchmark matrix runner and score tables.

A matrix is (instances x engines); each cell runs one engine on one instance
and persists a single JSON report, so a rerun of a finished matrix only
reloads files and reproduces the identical table. A stored report is reused
only when its engine, budgets, cell seed and instance content match the
cell's; otherwise, or when it cannot be read (a run killed mid-write leaves
it truncated), the cell runs again and its file is overwritten.  Scores
are the ratio of the best makespan found by any engine in the matrix to the
engine's own makespan, averaged per problem class; hybrid rows also report
the average improvement over their own first stage.  A cell whose engine
raised is stored with an ``error: ...`` status and counted in the table's
error column, never scored.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .hybrid import (ENGINE_HALF, ENGINE_LAST, ENGINES, RunReport,
                     read_report, run_engine, write_report)
from .instance import Chip, Instance, ParseError, generate_instance
from .schedule import score

ERROR = "error"   # status prefix of a cell whose engine raised


def goals_from_density(chip: Chip, density: float) -> int:
    """Goal count as a fraction of all distinct state pairs."""
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    pairs = math.comb(chip.qubit_count, 2)
    return round(density * pairs)


def gen_suite(chip: Chip, count: int, goal_count: int, variant: str,
              stages: int, seed: int = 0, label: str = "") -> list[Instance]:
    """``count`` independent instances with per-instance derived seeds."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        out.append(generate_instance(
            chip, goal_count, stages=stages, variant=variant,
            seed=rng.getrandbits(32),
            label=f"{label}#{i}" if label else f"suite#{i}"))
    return out


def _cell_seed(master_seed: int, instance_id: str, engine: str) -> int:
    return random.Random(f"{master_seed}:{instance_id}:{engine}").getrandbits(32)


def _report_path(out_dir: Path, instance_id: str, engine: str) -> Path:
    return out_dir / f"{instance_id}-{engine}.json"


@dataclass
class MatrixResult:
    instances: list[Instance]
    engines: list[str]
    reports: dict[tuple[str, str], RunReport] = field(default_factory=dict)

    def best_known(self) -> dict[str, int]:
        best: dict[str, int] = {}
        for (iid, _), report in self.reports.items():
            if report.final is None:
                continue
            mk = report.final.makespan
            if iid not in best or mk < best[iid]:
                best[iid] = mk
        return best

    def classes(self) -> list[tuple[str, int]]:
        seen = []
        for instance in self.instances:
            key = (instance.variant, instance.stages)
            if key not in seen:
                seen.append(key)
        return seen

    def cell(self, engine: str, cls: tuple[str, int]):
        """(avg score, solved, avg delta, improved, total) for one table cell."""
        best = self.best_known()
        scores = []
        deltas = []
        improved = 0
        total = 0
        for instance in self.instances:
            if (instance.variant, instance.stages) != cls:
                continue
            total += 1
            report = self.reports.get((instance.instance_id, engine))
            if report is None or report.final is None:
                continue
            mk = report.final.makespan
            if mk > 0 and best.get(instance.instance_id, 0) > 0:
                scores.append(score(best[instance.instance_id], mk))
            else:
                scores.append(1.0)
            if report.delta is not None:
                deltas.append(report.delta)
                if report.delta > 0:
                    improved += 1
        avg_score = sum(scores) / len(scores) if scores else None
        avg_delta = sum(deltas) / len(deltas) if deltas else None
        return avg_score, len(scores), avg_delta, improved, total

    def errors(self, engine: str, cls: tuple[str, int] | None = None) -> int:
        """Cells of ``engine`` (in class ``cls``, or in any) that raised."""
        count = 0
        for instance in self.instances:
            if cls is not None and (instance.variant, instance.stages) != cls:
                continue
            report = self.reports.get((instance.instance_id, engine))
            if report is not None and report.status.startswith(ERROR):
                count += 1
        return count

    def table(self) -> str:
        lines = [f"{'class':<14} {'engine':<8} {'score':<12} {'delta':<12} "
                 f"errors"]
        for cls in self.classes():
            cls_label = f"{cls[0]}/s{cls[1]}"
            for engine in self.engines:
                avg_score, solved, avg_delta, improved, total = \
                    self.cell(engine, cls)
                score_s = (f"{avg_score:.2f} ({solved})"
                           if avg_score is not None else f"-    ({solved})")
                if engine in (ENGINE_HALF, ENGINE_LAST) and avg_delta is not None:
                    delta_s = f"{avg_delta:+.1f}% ({improved})"
                else:
                    delta_s = "-"
                lines.append(f"{cls_label:<14} {engine:<8} {score_s:<12} "
                             f"{delta_s:<12} {self.errors(engine, cls)}")
        return "\n".join(lines) + "\n"


def _run_cell(instance: Instance, engine: str, budget_s: float,
              seed: int, out_dir: Path, node_budget: int | None) -> RunReport:
    path = _report_path(out_dir, instance.instance_id, engine)
    cell_seed = _cell_seed(seed, instance.instance_id, engine)
    cell = (engine, budget_s, node_budget, cell_seed, instance.content_digest)
    try:
        stored = read_report(path) if path.exists() else None
    except ParseError:   # e.g. cut short by a run killed mid-write
        stored = None
    if stored is not None and (stored.engine, stored.budget_s,
                               stored.node_budget, stored.seed,
                               stored.instance_digest) == cell:
        return stored
    try:
        report = run_engine(instance, engine, budget_s, seed=cell_seed,
                            node_budget=node_budget)
    except Exception as exc:   # a failed cell must not abort the matrix
        report = RunReport(instance.instance_id, engine, budget_s, cell_seed,
                           status=f"{ERROR}: {type(exc).__name__}: {exc}",
                           node_budget=node_budget,
                           instance_digest=instance.content_digest)
    write_report(report, path)
    return report


def run_matrix(instances: list[Instance], engines: list[str], budget_s: float,
               out_dir: str | Path, seed: int = 0,
               node_budget: int | None = None) -> MatrixResult:
    """Run (or resume) every (instance, engine) cell; reports persist in
    ``out_dir`` as one JSON file each, so engines and instance ids must
    not repeat."""
    if not instances:
        raise ValueError("empty instance suite")
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
    for kind, names in (("engine", engines),
                        ("instance id", [i.instance_id for i in instances])):
        if len(set(names)) < len(names):
            raise ValueError(f"repeated {kind} in the matrix")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = MatrixResult(instances=list(instances), engines=list(engines))
    for instance in instances:
        for engine in engines:
            result.reports[(instance.instance_id, engine)] = _run_cell(
                instance, engine, budget_s, seed, out_dir, node_budget)
    return result
