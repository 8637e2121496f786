"""One runner for the four engines: the router, the exact search, and the
two hybrids that hand the router's best schedule to the exact search.

``run_engine`` runs an optional router stage and then an optional exact
search.  ``router`` runs the router alone and ``cp`` runs the exact search
alone, cold, each with the whole budget.  ``half`` gives the router half the
budget and warm-starts the exact search from its best schedule with the time
that is left.  ``last`` gives the router the whole budget, then warm-starts
the exact search with the time that remained after the router's last
improvement — a best-case estimate of switching at exactly the right moment.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cpsolver import build_model, search
from .instance import Instance, ParseError
from .router import solve_anytime
from .schedule import (Schedule, improvement_delta, schedule_from_dict,
                       schedule_to_dict)

ENGINE_ROUTER = "router"
ENGINE_CP = "cp"
ENGINE_HALF = "half"
ENGINE_LAST = "last"
ENGINES = (ENGINE_ROUTER, ENGINE_CP, ENGINE_HALF, ENGINE_LAST)


@dataclass(frozen=True)
class TracePoint:
    t: float          # seconds since the stage started
    makespan: int
    swap_count: int
    source: str       # baseline | greedy | cp


@dataclass
class RunReport:
    instance_id: str
    engine: str
    budget_s: float
    seed: int
    stage1: list[TracePoint] = field(default_factory=list)
    stage2: list[TracePoint] = field(default_factory=list)
    stage2_start_s: float | None = None
    handoff: Schedule | None = None
    final: Schedule | None = None
    status: str = "unsolved"
    cp_status: str | None = None
    delta: float | None = None
    nodes: int = 0
    node_budget: int | None = None
    instance_digest: str = ""    # ``Instance.content_digest`` of the input


def run_engine(instance: Instance, engine: str, budget_s: float,
               seed: int = 0, node_budget: int | None = None) -> RunReport:
    """Run one engine (router | cp | half | last) within ``budget_s`` seconds.

    ``seed`` derives the router's seed; ``node_budget`` caps the exact
    search.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if budget_s <= 0:
        raise ValueError("budget_s must be positive")
    report = RunReport(instance.instance_id, engine, budget_s, seed,
                       node_budget=node_budget,
                       instance_digest=instance.content_digest)
    cp_budget, final = budget_s, None
    if engine != ENGINE_CP:
        t0 = time.monotonic()
        routed = solve_anytime(
            instance, budget_s / 2 if engine == ENGINE_HALF else budget_s,
            seed=random.Random(seed).getrandbits(32))
        report.stage1 = [TracePoint(i.found_at, i.schedule.makespan,
                                    i.schedule.swap_count, i.source)
                         for i in routed.incumbents]
        final = routed.best
        if engine != ENGINE_ROUTER:
            report.handoff = final
            report.stage2_start_s = (time.monotonic() - t0
                                     if engine == ENGINE_HALF
                                     else report.stage1[-1].t)
            cp_budget = max(budget_s - report.stage2_start_s, 0.0)
    if engine != ENGINE_ROUTER:
        result = search(build_model(instance), incumbent=report.handoff,
                        budget_s=cp_budget, node_budget=node_budget)
        points = [TracePoint(i.found_at, i.makespan, i.swap_count, "cp")
                  for i in result.incumbents]
        if report.handoff is None:
            report.stage1 = points
        else:
            report.stage2 = points
        report.cp_status = result.status
        report.nodes = result.nodes
        final = result.best
    report.final = final
    if final is not None:
        report.status = "solved"
        handoff = report.handoff
        if handoff is not None:
            report.delta = (improvement_delta(handoff.makespan, final.makespan)
                            if handoff.makespan > 0 and final.makespan > 0
                            else 0.0)
    return report


# ---------------------------------------------------------------------------
# serialization


def _points_to_list(points):
    return [{"t": p.t, "makespan": p.makespan, "swap_count": p.swap_count,
             "source": p.source} for p in points]


def _points_from_list(raw):
    return [TracePoint(p["t"], p["makespan"], p["swap_count"], p["source"])
            for p in raw]


def report_to_dict(report: RunReport) -> dict:
    return {
        "instance_id": report.instance_id,
        "engine": report.engine,
        "budget_s": report.budget_s,
        "seed": report.seed,
        "stage1": _points_to_list(report.stage1),
        "stage2": _points_to_list(report.stage2),
        "stage2_start_s": report.stage2_start_s,
        "handoff": schedule_to_dict(report.handoff) if report.handoff else None,
        "final": schedule_to_dict(report.final) if report.final else None,
        "status": report.status,
        "cp_status": report.cp_status,
        "delta": report.delta,
        "nodes": report.nodes,
        "node_budget": report.node_budget,
        "instance_digest": report.instance_digest,
    }


def report_from_dict(d: dict) -> RunReport:
    if not isinstance(d, dict):
        raise ParseError("run report is not an object")
    try:
        report = RunReport(
            instance_id=d["instance_id"],
            engine=d["engine"],
            budget_s=d["budget_s"],
            seed=d["seed"],
            stage1=_points_from_list(d.get("stage1", [])),
            stage2=_points_from_list(d.get("stage2", [])),
            stage2_start_s=d.get("stage2_start_s"),
            handoff=schedule_from_dict(d["handoff"]) if d.get("handoff") else None,
            final=schedule_from_dict(d["final"]) if d.get("final") else None,
            status=d.get("status", "unsolved"),
            cp_status=d.get("cp_status"),
            delta=d.get("delta"),
            nodes=d.get("nodes", 0),
            node_budget=d.get("node_budget"),
            instance_digest=d.get("instance_digest", ""),
        )
    except KeyError as exc:
        raise ParseError(f"missing field {exc} in run report") from exc
    except TypeError as exc:   # a field of the wrong type
        raise ParseError(f"malformed run report: {exc}") from exc
    return report


def write_report(report: RunReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")


def read_report(path: str | Path) -> RunReport:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return report_from_dict(data)
