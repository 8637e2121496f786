"""One runner for the four engines: the router, the exact search, and the
two hybrids that hand the router's best schedule to the exact search.

``run_engine`` runs an optional router stage and then an optional exact
search.  ``router`` runs the router alone and ``cp`` runs the exact search
alone, cold, each with the whole budget.  ``half`` gives the router half the
budget and warm-starts the exact search from its best schedule with the time
that is left.  ``last`` gives the router the whole budget, then warm-starts
the exact search with the time that remained after the router's last
improvement — a best-case estimate of switching at exactly the right moment.

A ``RunReport`` keeps one trace of the run's incumbents, the router's and
then the search's, on one clock: seconds into the run's budget.  Its
``delta`` is derived from the handoff and the final schedule.  Its JSON form
has one key per dataclass field, so a field added to ``RunReport``
round-trips through ``report_to_dict`` and ``report_from_dict`` unchanged.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, fields
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
    """One incumbent of a run.

    ``t`` is seconds into the run's budget: a router point counts from the
    run's start, a search point from ``RunReport.stage2_start_s`` (from 0
    for ``cp``).  ``source`` names the stage that found it.
    """

    t: float
    makespan: int
    swap_count: int
    source: str       # baseline | greedy | cp


@dataclass
class RunReport:
    instance_id: str
    engine: str
    budget_s: float
    seed: int
    trace: list[TracePoint] = field(default_factory=list)
    stage2_start_s: float | None = None   # when the search took over
    handoff: Schedule | None = None
    final: Schedule | None = None
    status: str = "unsolved"
    cp_status: str | None = None
    nodes: int = 0
    node_budget: int | None = None
    instance_digest: str = ""    # ``Instance.content_digest`` of the input

    @property
    def delta(self) -> float | None:
        """Percent improvement of ``final`` over ``handoff``: None unless
        both exist, 0.0 when either makespan is 0."""
        if self.handoff is None or self.final is None:
            return None
        if self.handoff.makespan > 0 and self.final.makespan > 0:
            return improvement_delta(self.handoff.makespan,
                                     self.final.makespan)
        return 0.0


def run_engine(instance: Instance, engine: str, budget_s: float,
               seed: int = 0, node_budget: int | None = None) -> RunReport:
    """Run one engine (router | cp | half | last) within ``budget_s`` seconds.

    ``seed`` derives the router's seed; ``node_budget`` caps the exact
    search.  For ``last``, ``stage2_start_s`` is the router's last
    improvement, the hand-over whose remaining time the search gets.
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
        report.trace = [TracePoint(i.found_at, i.schedule.makespan,
                                   i.schedule.swap_count, i.source)
                        for i in routed.incumbents]
        final = routed.best
        if engine != ENGINE_ROUTER:
            report.handoff = final
            report.stage2_start_s = (time.monotonic() - t0
                                     if engine == ENGINE_HALF
                                     else report.trace[-1].t)
            cp_budget = max(budget_s - report.stage2_start_s, 0.0)
    if engine != ENGINE_ROUTER:
        result = search(build_model(instance), incumbent=report.handoff,
                        budget_s=cp_budget, node_budget=node_budget)
        start = report.stage2_start_s or 0.0
        report.trace += [TracePoint(start + i.found_at, i.makespan,
                                    i.swap_count, "cp")
                         for i in result.incumbents]
        report.cp_status = result.status
        report.nodes = result.nodes
        final = result.best
    report.final = final
    if final is not None:
        report.status = "solved"
    return report


# ---------------------------------------------------------------------------
# serialization


# (to JSON, from JSON) of each field that is not a JSON value itself
_IDENTITY = (lambda value: value, lambda value: value)
_SCHEDULE = (lambda s: None if s is None else schedule_to_dict(s),
             lambda raw: None if raw is None else schedule_from_dict(raw))
_CODECS = {"trace": (lambda trace: [asdict(p) for p in trace],
                     lambda raw: [TracePoint(**p) for p in raw]),
           "handoff": _SCHEDULE, "final": _SCHEDULE}


def report_to_dict(report: RunReport) -> dict:
    return {f.name: _CODECS.get(f.name, _IDENTITY)[0](getattr(report, f.name))
            for f in fields(RunReport)}


def report_from_dict(d: dict) -> RunReport:
    """Read a report, ignoring keys that are not fields (the ``stage1``,
    ``stage2``, ``delta`` and ``stage_seeds`` of older reports); a missing
    optional field takes its default."""
    if not isinstance(d, dict):
        raise ParseError("run report is not an object")
    try:
        return RunReport(**{f.name: _CODECS.get(f.name, _IDENTITY)[1](
            d[f.name]) for f in fields(RunReport) if f.name in d})
    except TypeError as exc:   # a missing or wrong-typed field
        raise ParseError(f"malformed run report: {exc}") from exc


def write_report(report: RunReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")


def read_report(path: str | Path) -> RunReport:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return report_from_dict(data)
