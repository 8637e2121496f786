"""Fast satisficing schedule construction.

Two engines: a strictly sequential baseline whose makespan realizes the
horizon bound certificate, and an event-driven greedy that interleaves goals
on the timeline. ``solve_anytime`` wraps both in a randomized-restart loop
that records each strictly improving incumbent.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from . import instance as inst
from .instance import Chip, Instance
from .schedule import (GateTask, Schedule, TWO_QUBIT_KINDS, init_task,
                       mix_task, ps_task, swap_task)


class RoutingError(ValueError):
    """A goal's states cannot be brought together over swap-enabled edges."""


def all_pairs_distances(chip: Chip) -> dict[int, dict[int, int]]:
    """The chip's cached swap-distance table; read it, do not mutate it."""
    return chip.swap_distances


def require_routable(instance: Instance) -> None:
    """Raise ``RoutingError`` for the first goal whose states sit on qubits
    the swap edges do not connect. Free placement (qcc-i) puts the states
    anywhere, so it is left to the solvers."""
    if instance.variant == inst.QCC_I:
        return
    dist = instance.chip.swap_distances
    for g, (s1, s2) in instance.goal_pairs.items():
        if s2 not in dist[s1]:
            raise RoutingError(f"goal {g} is unreachable on the swap graph")


def shortest_path(chip: Chip, a: int, b: int,
                  rng: random.Random | None = None) -> list[int]:
    """A shortest swap path from a to b; rng picks among equal-length ones."""
    adj = chip.swap_neighbors
    dist = chip.swap_distances[b]
    if a not in dist:
        raise RoutingError(f"no swap path between qubits {a} and {b}")
    path = [a]
    cur = a
    while cur != b:
        options = [n for n in adj[cur] if dist.get(n, -1) == dist[cur] - 1]
        cur = rng.choice(options) if rng else options[0]
        path.append(cur)
    return path


class _Timeline:
    """Per-qubit release times, plus crosstalk intervals under qcc-x.

    A qubit's release time is the latest end of its committed tasks, so a
    probe that starts at its qubits' release times never overlaps their own
    tasks. Without crosstalk that start is the answer. Under qcc-x a
    two-qubit probe also clashes with the tasks on its zone's qubits
    (``busy``). That covers every two-qubit task whose zone holds one of the
    probe's qubits, since such a task runs on a neighbor of that qubit. A
    one-qubit probe clashes with the two-qubit tasks whose zone holds its
    qubit (``blocked``). The probe jumps past the latest clashing end until
    nothing clashes.
    """

    def __init__(self, instance: Instance):
        self.chip = instance.chip
        self.crosstalk = instance.variant == inst.QCC_X
        self.ready = {q: 0 for q in instance.chip.qubits}
        self.busy: dict[int, list[tuple[int, int]]] = \
            {q: [] for q in instance.chip.qubits}
        self.blocked: dict[int, list[tuple[int, int]]] = \
            {q: [] for q in instance.chip.qubits}

    def earliest(self, qubits: set[int], duration: int, not_before: int,
                 two_qubit_loc: tuple[int, int] | None = None) -> int:
        t = max([not_before] + [self.ready[q] for q in qubits])
        if not self.crosstalk:
            return t
        if two_qubit_loc:
            lists = [self.busy[q]
                     for q in self.chip.crosstalk_zone(*two_qubit_loc)]
        else:
            lists = [self.blocked[q] for q in qubits]
        while True:
            end = t + duration
            clash = max((e for ivs in lists for s, e in ivs
                         if s < end and t < e), default=None)
            if clash is None:
                return t
            t = clash

    def commit(self, task: GateTask) -> None:
        interval = (task.start, task.end)
        for q in task.qubits:
            self.ready[q] = max(self.ready[q], task.end)
            if self.crosstalk:
                self.busy[q].append(interval)
        if self.crosstalk and task.kind in TWO_QUBIT_KINDS:
            for q in self.chip.crosstalk_zone(*task.location):
                self.blocked[q].append(interval)


def _identity_inits(instance: Instance) -> list[GateTask]:
    if instance.variant != inst.QCC_I:
        return []
    return [init_task(q, q) for q in instance.chip.qubits]


def _greedy_placement(instance: Instance, rng: random.Random) -> dict[int, int]:
    """Free-placement heuristic: high-degree goal states near the center."""
    chip = instance.chip
    dist = all_pairs_distances(chip)
    degree = {s: 0 for s in range(1, instance.state_count + 1)}
    partners: dict[int, list[int]] = {s: [] for s in degree}
    for a, b in instance.goals:
        degree[a] += 1
        degree[b] += 1
        partners[a].append(b)
        partners[b].append(a)
    centrality = {q: sum(dist[q].values()) for q in chip.qubits}

    placement: dict[int, int] = {}
    free = set(chip.qubits)
    for s in sorted(degree, key=lambda s: (-degree[s], s)):
        if degree[s] == 0:
            continue
        placed_partners = [placement[p] for p in partners[s] if p in placement]
        if placed_partners:
            cost = {q: sum(dist[q][p] for p in placed_partners) for q in free}
        else:
            cost = {q: centrality[q] for q in free}
        best = min(cost.values())
        q = rng.choice(sorted(c for c in free if cost[c] == best))
        placement[s] = q
        free.discard(q)
    for s in sorted(degree, key=lambda s: (-degree[s], s)):
        if s not in placement:
            q = sorted(free)[0]
            placement[s] = q
            free.discard(q)
    return placement


def _initial_locations(instance: Instance,
                       placement: dict[int, int] | None = None) -> dict[int, int]:
    if instance.variant == inst.QCC_I and placement is not None:
        return dict(placement)
    return {s: s for s in range(1, instance.state_count + 1)}


def solve_sequential_baseline(instance: Instance) -> Schedule:
    """One goal after another along shortest paths; certifies the horizon bound."""
    chip = instance.chip
    loc = _initial_locations(instance)         # state -> qubit
    holder = {q: s for s, q in loc.items()}    # qubit -> state
    tasks = list(_identity_inits(instance))
    cursor = 0

    def run_goal(goal_index: int) -> None:
        nonlocal cursor
        s1, s2 = instance.goal_pair(goal_index)
        path = shortest_path(chip, loc[s1], loc[s2])
        d = len(path) - 1
        m = (d - 1) // 2
        for i in range(m):                     # s1 moves right to path[m]
            cursor = _seq_swap(path[i], path[i + 1], cursor)
        for i in range(d, m + 1, -1):          # s2 moves left to path[m+1]
            cursor = _seq_swap(path[i], path[i - 1], cursor)
        edge = chip.edge_between(path[m], path[m + 1])
        tasks.append(ps_task(path[m], path[m + 1], cursor, edge.ps_duration,
                             goal_index))
        cursor += edge.ps_duration

    def _seq_swap(u: int, v: int, t: int) -> int:
        tasks.append(swap_task(u, v, t, chip.swap_duration))
        su, sv = holder.get(u), holder.get(v)
        holder[u], holder[v] = sv, su
        if su is not None:
            loc[su] = v
        if sv is not None:
            loc[sv] = u
        return t + chip.swap_duration

    for o in range(1, instance.goal_count + 1):
        run_goal(o)
    if instance.stages == 2:
        for s in range(1, instance.state_count + 1):
            tasks.append(mix_task(loc[s], cursor, chip.mix_duration, s))
        cursor += chip.mix_duration
        for o in range(instance.goal_count + 1, 2 * instance.goal_count + 1):
            run_goal(o)
    return Schedule.from_tasks(tasks, instance_id=instance.instance_id)


def solve_greedy(instance: Instance, seed: int = 0) -> Schedule:
    """Interleaving goal router: nearest pending goal first, tasks start ASAP."""
    chip = instance.chip
    rng = random.Random(seed)
    placement = _greedy_placement(instance, rng) \
        if instance.variant == inst.QCC_I else None
    loc = _initial_locations(instance, placement)
    holder = {q: s for s, q in loc.items()}
    tl = _Timeline(instance)
    tasks: list[GateTask] = []
    if instance.variant == inst.QCC_I:
        for q in chip.qubits:
            tasks.append(init_task(q, holder[q]))
    dist_all = all_pairs_distances(chip)
    mix_end: dict[int, int] = {}
    goal_ps_end: dict[int, int] = {}

    def commit(task: GateTask) -> None:
        tl.commit(task)
        tasks.append(task)

    def do_swap(u: int, v: int) -> None:
        start = tl.earliest({u, v}, chip.swap_duration, 0, (u, v))
        commit(swap_task(u, v, start, chip.swap_duration))
        su, sv = holder.get(u), holder.get(v)
        holder[u], holder[v] = sv, su
        if su is not None:
            loc[su] = v
        if sv is not None:
            loc[sv] = u

    def run_goal(goal_index: int, stage: int) -> None:
        s1, s2 = instance.goal_pair(goal_index)
        path = shortest_path(chip, loc[s1], loc[s2], rng)
        d = len(path) - 1
        splits = {}
        for m in range(d):
            edge = chip.edge_between(path[m], path[m + 1])
            splits[m] = max(m, d - 1 - m) * chip.swap_duration + edge.ps_duration
        best = min(splits.values())
        m = rng.choice(sorted(k for k, v in splits.items() if v == best))
        for i in range(m):
            do_swap(path[i], path[i + 1])
        for i in range(d, m + 1, -1):
            do_swap(path[i], path[i - 1])
        u, v = path[m], path[m + 1]
        edge = chip.edge_between(u, v)
        not_before = 0
        if stage == 2:
            not_before = max(mix_end.get(s1, 0), mix_end.get(s2, 0))
        start = tl.earliest({u, v}, edge.ps_duration, not_before, (u, v))
        commit(ps_task(u, v, start, edge.ps_duration, goal_index))
        for s in (s1, s2):
            goal_ps_end[s] = max(goal_ps_end.get(s, 0), start + edge.ps_duration)

    def run_stage(stage: int) -> None:
        base = 0 if stage == 1 else instance.goal_count
        pairs = instance.goal_pairs
        pending = set(range(base + 1, base + instance.goal_count + 1))
        while pending:
            dists = {o: dist_all[loc[pairs[o][0]]].get(loc[pairs[o][1]])
                     for o in pending}
            if any(v is None for v in dists.values()):
                bad = next(o for o, v in dists.items() if v is None)
                raise RoutingError(f"goal {bad} is unreachable on the swap graph")
            nearest = min(dists.values())
            o = rng.choice(sorted(k for k, v in dists.items() if v == nearest))
            pending.discard(o)
            run_goal(o, stage)

    run_stage(1)
    if instance.stages == 2:
        for s in range(1, instance.state_count + 1):
            q = loc[s]
            start = tl.earliest({q}, chip.mix_duration, goal_ps_end.get(s, 0))
            commit(mix_task(q, start, chip.mix_duration, s))
            mix_end[s] = start + chip.mix_duration
        run_stage(2)
    return Schedule.from_tasks(tasks, instance_id=instance.instance_id)


@dataclass(frozen=True)
class Incumbent:
    schedule: Schedule
    found_at: float
    source: str


@dataclass
class AnytimeResult:
    best: Schedule
    incumbents: list[Incumbent]


def solve_anytime(instance: Instance, budget_s: float | None = None,
                  seed: int = 0, max_restarts: int | None = None,
                  on_incumbent: Callable[[Incumbent], None] | None = None,
                  ) -> AnytimeResult:
    """Baseline first, then restarted greedy; records each strict improvement
    and passes it to ``on_incumbent`` as it is found.

    Restarts run until ``budget_s`` seconds pass or ``max_restarts`` have
    run, whichever comes first; ``None`` lifts that limit, and one of the two
    must be set.
    """
    if budget_s is None and max_restarts is None:
        raise ValueError("solve_anytime needs budget_s or max_restarts")
    t0 = time.monotonic()
    rng = random.Random(seed)
    incumbents: list[Incumbent] = []

    def record(schedule: Schedule, source: str) -> None:
        item = Incumbent(schedule, time.monotonic() - t0, source)
        incumbents.append(item)
        if on_incumbent:
            on_incumbent(item)

    best = solve_sequential_baseline(instance)
    record(best, "baseline")
    restarts = 0
    while ((budget_s is None or time.monotonic() - t0 < budget_s)
           and (max_restarts is None or restarts < max_restarts)):
        candidate = solve_greedy(instance, seed=rng.getrandbits(32))
        restarts += 1
        if candidate.objective() < best.objective():
            best = candidate
            record(best, "greedy")
    return AnytimeResult(best=best, incumbents=incumbents)
