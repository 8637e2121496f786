"""Spans around the package's public functions, recorded from outside it.

``installed`` swaps each traced function on its module for a wrapper and
puts the originals back on exit. Spans stay in memory until ``write``.
``layer_metrics`` turns one traced pass into the per-layer numbers.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from qcsched import cpsolver, oracle, router, schedule


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _search_attrs(args, kwargs, result) -> dict:
    warm = args[1] if len(args) > 1 else kwargs.get("incumbent")
    attrs = {"status": result.status, "nodes": result.nodes,
             "warm": warm is not None}
    if warm is not None:
        attrs["improved"] = result.best.objective() < warm.objective()
    return attrs


def _anytime_attrs(args, kwargs, result) -> dict:
    return {"improvements": sum(1 for i in result.incumbents
                                if i.source == "greedy")}


def _validate_attrs(args, kwargs, result) -> dict:
    return {"tasks": len(args[1].tasks)}


# (module, attribute, span name, attrs from (args, kwargs, result)).
# cpsolver imports all_pairs_distances by name, so it is wrapped there too.
TARGETS = (
    (router, "solve_anytime", "router.solve_anytime", _anytime_attrs),
    (router, "solve_sequential_baseline", "router.baseline", None),
    (router, "solve_greedy", "router.solve_greedy", None),
    (router, "shortest_path", "router.shortest_path", None),
    (router, "all_pairs_distances", "router.all_pairs_distances", None),
    (cpsolver, "all_pairs_distances", "router.all_pairs_distances", None),
    (cpsolver, "build_model", "cpsolver.build_model", None),
    (cpsolver, "search", "cpsolver.search", _search_attrs),
    (cpsolver, "propagate", "cpsolver.propagate", None),
    (cpsolver, "warm_start", "cpsolver.warm_start", None),
    (cpsolver, "check_assignment", "cpsolver.check_assignment", None),
    (schedule, "validate", "schedule.validate", _validate_attrs),
    (oracle, "optimal_makespan", "oracle.optimal_makespan", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.cell: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].sid if self._open else None
        s = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.cell)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, attrs):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    s.attrs.update(attrs(args, kwargs, result))
                return result
        return traced

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in TARGETS]
        try:
            for module, attr, name, attrs in TARGETS:
                setattr(module, attr, self.wrap(name, getattr(module, attr),
                                                attrs))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "cell": s.cell,
                    **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    The program is single-threaded, so a span's children never overlap.
    """
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit, base).

    A layer that does not run on a workload reports 0.
    """
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def calls(name: str) -> int:
        return len(by.get(name, ()))

    def total(name: str) -> float:
        return sum(s.duration for s in by.get(name, ()))

    own = self_times(spans)
    cell_s = total("cell")
    greedy = by.get("router.solve_greedy", [])
    improving = sum(s.attrs.get("improvements", 0)
                    for s in by.get("router.solve_anytime", []))
    searches = by.get("cpsolver.search", [])
    finished = [s for s in searches if "error" not in s.attrs]
    nodes = sum(s.attrs["nodes"] for s in finished)
    warm = [s for s in finished if s.attrs["warm"]]
    validated = by.get("schedule.validate", [])
    tasks = sum(s.attrs.get("tasks", 0) for s in validated)
    return {
        "router.restarts": (len(greedy), "count", "solve_greedy calls"),
        "router.restart_ms": (
            1e3 * _ratio(total("router.solve_greedy"), len(greedy)), "ms",
            "per solve_greedy call"),
        "router.restart_self_ms": (
            1e3 * _ratio(sum(own[s.sid] for s in greedy), len(greedy)), "ms",
            "per solve_greedy call, without traced children"),
        "router.shortest_path_calls": (
            calls("router.shortest_path"), "count", "calls"),
        "router.shortest_path_share": (
            _ratio(total("router.shortest_path"), cell_s), "share",
            "of traced cell time"),
        "router.all_pairs_calls": (
            calls("router.all_pairs_distances"), "count",
            "calls from router and cpsolver"),
        "router.all_pairs_share": (
            _ratio(total("router.all_pairs_distances"), cell_s), "share",
            "of traced cell time"),
        "router.baseline_ms": (
            1e3 * _ratio(total("router.baseline"), calls("router.baseline")),
            "ms", "per solve_sequential_baseline call"),
        "router.improve_ratio": (
            _ratio(improving, len(greedy)), "ratio",
            f"{improving} improving restarts / {len(greedy)} restarts"),
        "cpsolver.searches": (len(searches), "count", "search calls"),
        "cpsolver.nodes": (nodes, "count", "nodes of searches that returned"),
        "cpsolver.node_us": (
            1e6 * _ratio(sum(s.duration for s in finished), nodes), "us",
            "search time / nodes, searches that returned"),
        "cpsolver.build_model_ms": (
            1e3 * _ratio(total("cpsolver.build_model"),
                         calls("cpsolver.build_model")), "ms",
            "per build_model call"),
        "cpsolver.propagate_share": (
            _ratio(total("cpsolver.propagate"), total("cpsolver.search")),
            "share", "of search time"),
        "cpsolver.warm_check_ms": (
            1e3 * _ratio(total("cpsolver.warm_start"),
                         calls("cpsolver.warm_start")), "ms",
            "warm_start (with check_assignment) per warm search"),
        "cpsolver.optimal": (
            sum(s.attrs["status"] == cpsolver.OPTIMAL for s in finished),
            "count", "searches"),
        "cpsolver.timeouts": (
            sum(s.attrs["status"] == cpsolver.TIMEOUT for s in finished),
            "count", "searches"),
        "cpsolver.errors": (len(searches) - len(finished), "count",
                            "searches that raised"),
        "cpsolver.warm_improved_ratio": (
            _ratio(sum(s.attrs["improved"] for s in warm), len(warm)),
            "ratio", f"warm searches that beat their handoff / {len(warm)}"),
        "schedule.validate_calls": (len(validated), "count", "calls"),
        "schedule.validate_us_per_task": (
            1e6 * _ratio(total("schedule.validate"), tasks), "us",
            f"validate time / {tasks} tasks validated"),
        "oracle.calls": (calls("oracle.optimal_makespan"), "count", "calls"),
        "oracle.check_s": (total("oracle.optimal_makespan"), "s",
                           "total, outside every cell time"),
    }
