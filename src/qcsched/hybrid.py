"""One runner for the four engines: the router, the exact search, and the
two hybrids that hand the router's best schedule to the exact search.

``run_engine`` runs an optional router stage and then an optional exact
search.  ``router`` runs the router alone and ``cp`` runs the exact search
alone, cold, each with the whole budget.  ``half`` gives the router half the
budget and warm-starts the exact search from its best schedule with the time
that is left.  ``last`` gives the router the whole budget, then warm-starts
the exact search with the time that remained after the router's last
improvement — a best-case estimate of switching at exactly the right moment.

A ``RunReport`` keeps one trace of the run's incumbents: the router's
``Incumbent`` records, then the search's with ``stage2_start_s`` added to
their time, all on one clock, seconds into the run's budget.  Its ``delta``
is derived from the handoff and the final schedule.  Its file form is
``to_json``'s, one key per compared dataclass field, and ``from_json``
reads it back, with ``_DECODE`` naming the fields that hold records.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .cpsolver import build_model, search
from .instance import Instance, from_json, read_json, write_json
from .router import solve_anytime
from .schedule import (Incumbent, Schedule, improvement_delta,
                       schedule_from_dict)

ENGINE_ROUTER = "router"
ENGINE_CP = "cp"
ENGINE_HALF = "half"
ENGINE_LAST = "last"
ENGINES = (ENGINE_ROUTER, ENGINE_CP, ENGINE_HALF, ENGINE_LAST)


@dataclass
class RunReport:
    instance_id: str
    engine: str
    budget_s: float
    seed: int
    trace: list[Incumbent] = field(default_factory=list)
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
    if not 0 < budget_s < math.inf:
        raise ValueError("budget_s must be positive and finite")
    report = RunReport(instance.instance_id, engine, budget_s, seed,
                       node_budget=node_budget,
                       instance_digest=instance.content_digest)
    cp_budget, final = budget_s, None
    if engine != ENGINE_CP:
        t0 = time.monotonic()
        routed = solve_anytime(
            instance, budget_s / 2 if engine == ENGINE_HALF else budget_s,
            seed=random.Random(seed).getrandbits(32))
        report.trace = list(routed.incumbents)
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
        report.trace += [replace(i, t=start + i.t)
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


# (JSON type, reader) of each field whose JSON form is not its value
_DECODE = {"trace": ("list", lambda raw: [from_json(Incumbent, p, "incumbent")
                                          for p in raw]),
           "handoff": ("dict | None", schedule_from_dict),
           "final": ("dict | None", schedule_from_dict)}


def report_from_dict(d: dict) -> RunReport:
    """Read a report, ignoring the ``stage1``, ``stage2``, ``delta`` and
    ``stage_seeds`` of older reports."""
    return from_json(RunReport, d, "report", _DECODE)


def write_report(report: RunReport, path: str | Path) -> None:
    write_json(report, path)


def read_report(path: str | Path) -> RunReport:
    return read_json(path, report_from_dict)
