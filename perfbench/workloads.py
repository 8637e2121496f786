"""Workload matrices, the four engines under work budgets, and instance bounds.

Every cell is one engine on one instance. Engines get work budgets (router
restarts, search nodes) and never a wall-clock budget, so a cell's schedule,
status and node count depend only on the workload seed.

``half`` and ``last`` are assembled here from public ``router`` and
``cpsolver`` calls, because ``hybrid.run_half``/``run_last`` accept only
wall-clock budgets and do not pass a restart cap to the router.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import product
from math import ceil
from time import perf_counter

from qcsched import cpsolver, router, schedule
from qcsched.instance import (QCC, QCC_I, QCC_X, Chip, Instance,
                              build_grid_chip, build_preset_chip,
                              generate_instance)

VARIANTS = (QCC, QCC_I, QCC_X)
STAGES = (1, 2)


@dataclass(frozen=True)
class Budget:
    restarts: int     # greedy restarts after the sequential baseline
    nodes: int        # search nodes


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[tuple[str, tuple[int, ...]], ...]   # (chip, goal counts)
    replicas: int                                      # instances per class
    engines: tuple[str, ...]
    budget: Budget


# Why each workload exists and which layer it loads is recorded in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("route-21", (("rigetti-21", (20, 40, 60)),), 8,
             ("router",), Budget(restarts=4, nodes=0)),
    Workload("exact-small", (("rigetti-8", (3, 4, 5)), ("grid:3", (3, 4, 5))),
             3, ("cp", "half"), Budget(restarts=8, nodes=1500)),
    Workload("suite", (("rigetti-8", (4,)), ("grid:3", (5,)),
                       ("rigetti-21", (10,))),
             4, ("router", "cp", "half", "last"),
             Budget(restarts=8, nodes=1000)),
)}


@dataclass(frozen=True)
class Cell:
    cid: int
    chip: str
    engine: str
    instance: Instance
    seed: int


def load_chip(name: str) -> Chip:
    if name.startswith("grid:"):
        return build_grid_chip(int(name.split(":", 1)[1]))
    return build_preset_chip(name)


def build_cells(workload: Workload, seed: int) -> list[Cell]:
    """The workload's cells; one seed always gives the same instances."""
    rng = random.Random(f"{workload.name}:{seed}")
    cells: list[Cell] = []
    for chip_name, goal_counts in workload.classes:
        chip = load_chip(chip_name)
        for goals, variant, stages, r in product(goal_counts, VARIANTS, STAGES,
                                                 range(workload.replicas)):
            instance = generate_instance(
                chip, goals, stages=stages, variant=variant,
                seed=rng.getrandbits(32),
                label=f"{chip_name}/{variant}/s{stages}/g{goals}#{r}")
            for engine in workload.engines:
                cells.append(Cell(len(cells), chip_name, engine, instance,
                                  rng.getrandbits(32)))
    return cells


# ---------------------------------------------------------------------------
# bounds, from the benchmark's own BFS over the chip's swap graph, so that
# they do not depend on the code they judge


def swap_distances(chip: Chip) -> dict[int, dict[int, int]]:
    adj: dict[int, list[int]] = {q: [] for q in chip.qubits}
    for e in chip.swap_edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    out = {}
    for source in chip.qubits:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            q = queue.popleft()
            for n in adj[q]:
                if n not in dist:
                    dist[n] = dist[q] + 1
                    queue.append(n)
        out[source] = dist
    return out


def lower_bound(instance: Instance,
                dist: dict[int, dict[int, int]] | None = None) -> int:
    """No schedule of the instance finishes its last goal gate earlier.

    A goal whose states start d swaps apart needs d-1 swaps, at most two of
    them at a time, before its first gate; every stage adds one gate and a
    second stage adds the mix in between. A state's goal gates cannot overlap.
    Under qcc-i the placement is free, so no initial distance is assumed.
    """
    chip = instance.chip
    if not instance.goals:
        return 0
    gates = instance.stages * chip.min_ps_duration \
        + (instance.stages - 1) * chip.mix_duration
    route = 0
    if instance.variant != QCC_I:
        dist = dist or swap_distances(chip)
        route = max(ceil((dist[a][b] - 1) / 2) for a, b in instance.goals) \
            * chip.swap_duration
    load: dict[int, int] = {}
    for a, b in instance.goals:
        load[a] = load.get(a, 0) + 1
        load[b] = load.get(b, 0) + 1
    busiest = max(load.values()) * instance.stages * chip.min_ps_duration \
        + (instance.stages - 1) * chip.mix_duration
    return max(route + gates, busiest)


def upper_bound(instance: Instance,
                dist: dict[int, dict[int, int]] | None = None) -> int:
    """Makespan of routing goals one at a time along a diameter-long path."""
    chip = instance.chip
    dist = dist or swap_distances(chip)
    diameter = max(max(d.values()) for d in dist.values())
    per_goal = (diameter - 1) * chip.swap_duration + chip.max_ps_duration
    mix = chip.mix_duration if instance.stages == 2 else 0
    return instance.goal_count * instance.stages * per_goal + mix


def bounds(cells: list[Cell]) -> dict[str, tuple[int, int]]:
    """(lower, upper) per instance label; distances are computed per chip."""
    dist: dict[str, dict[int, dict[int, int]]] = {}
    out = {}
    for cell in cells:
        if cell.instance.label not in out:
            if cell.chip not in dist:
                dist[cell.chip] = swap_distances(cell.instance.chip)
            d = dist[cell.chip]
            out[cell.instance.label] = (lower_bound(cell.instance, d),
                                        upper_bound(cell.instance, d))
    return out


# ---------------------------------------------------------------------------
# engines


@dataclass(frozen=True)
class Result:
    schedule: object          # qcsched Schedule, or None if none was found
    status: str               # router | optimal | timeout | infeasible
    nodes: int


def _route(instance: Instance, seed: int, restarts: int):
    return router.solve_anytime(instance, budget_s=None, seed=seed,
                                max_restarts=restarts).best


def _route_counted(instance: Instance, seed: int, restarts: int):
    """Route, and return the restart that gave the last improvement (0 when
    the baseline was never beaten), counted by wrapping ``solve_greedy``."""
    greedy = router.solve_greedy
    count = last = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return greedy(*args, **kwargs)

    def improved(_incumbent):
        nonlocal last
        last = count

    router.solve_greedy = counted
    try:
        best = router.solve_anytime(instance, budget_s=None, seed=seed,
                                    max_restarts=restarts,
                                    on_incumbent=improved).best
    finally:
        router.solve_greedy = greedy
    return best, last


def _search(instance: Instance, warm, nodes: int) -> Result:
    found = cpsolver.search(cpsolver.build_model(instance), warm,
                            budget_s=None, node_budget=nodes)
    return Result(found.best, found.status, found.nodes)


def run_engine(engine: str, instance: Instance, seed: int,
               budget: Budget) -> Result:
    if engine == "router":
        return Result(_route(instance, seed, budget.restarts), "router", 0)
    if engine == "cp":
        return _search(instance, None, budget.nodes)
    if engine == "half":
        handoff = _route(instance, seed, budget.restarts // 2)
        return _search(instance, handoff, budget.nodes // 2)
    if engine == "last":
        handoff, k = _route_counted(instance, seed, budget.restarts)
        left = budget.nodes * (budget.restarts - k) // budget.restarts
        return _search(instance, handoff, left)
    raise ValueError(f"unknown engine {engine!r}")


@dataclass(frozen=True)
class Outcome:
    makespan: int | None
    swaps: int | None
    status: str       # engine status, or "error" when the cell raised
    nodes: int
    valid: bool       # a schedule came back and passed ``validate``
    error: str = ""   # "Type: message" of the exception a cell raised

    def key(self) -> tuple:
        """What two runs of the same cell must agree on."""
        return (self.makespan, self.swaps, self.status, self.nodes,
                self.error.split(":", 1)[0])


def run_cell(cell: Cell, budget: Budget) -> tuple[Outcome, float]:
    """Run the engine and validate its schedule; returns (outcome, seconds)."""
    t0 = perf_counter()
    try:
        found = run_engine(cell.engine, cell.instance, cell.seed, budget)
        best = found.schedule
        valid = best is not None and \
            schedule.validate(cell.instance, best).valid
    except Exception as exc:   # a crashing cell is a result, reported as such
        return (Outcome(None, None, "error", 0, False,
                        f"{type(exc).__name__}: {exc}"),
                perf_counter() - t0)
    elapsed = perf_counter() - t0
    if best is None:
        return Outcome(None, None, found.status, found.nodes, False), elapsed
    return (Outcome(best.makespan, best.swap_count, found.status, found.nodes,
                    valid), elapsed)
