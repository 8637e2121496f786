"""Fast satisficing schedule construction.

Two engines: a strictly sequential baseline whose makespan realizes the
horizon bound certificate, and an event-driven greedy that interleaves goals
on the timeline. ``solve_anytime`` wraps both in a randomized-restart loop
that records each strictly improving incumbent.

Both walk shortest swap paths through ``Chip.swap_next_hops`` and read gate
durations from ``Chip.ps_durations``, tables the chip builds once. The
greedy checks once, after placement, that the swap edges connect each
goal's states; states move only along swap edges, so that cannot change.
Under qcc-x its timeline bisects each qubit's sorted crosstalk intervals.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable

from . import instance as inst
from .instance import Chip, Instance
from .schedule import (GateTask, Schedule, TWO_QUBIT_KINDS, init_task,
                       mix_task, ps_task, swap_task)


class RoutingError(ValueError):
    """A goal's states cannot be brought together over swap-enabled edges."""


def all_pairs_distances(chip: Chip) -> dict[int, dict[int, int]]:
    """The chip's cached swap-distance table; read it, do not mutate it."""
    return chip.swap_distances


def require_routable(instance: Instance,
                     loc: dict[int, int] | None = None) -> None:
    """Raise ``RoutingError`` for the first goal whose states sit on qubits
    the swap edges do not connect, with the states where ``loc`` (state ->
    qubit) puts them, or on their own qubits. Without ``loc``, free
    placement (qcc-i) puts the states anywhere, so it is left to the
    solvers."""
    if loc is None:
        if instance.variant == inst.QCC_I:
            return
        loc = {s: s for s in instance.chip.qubits}
    dist = instance.chip.swap_distances
    for g, (s1, s2) in enumerate(instance.goals, start=1):
        if loc[s2] not in dist[loc[s1]]:
            raise RoutingError(f"goal {g} is unreachable on the swap graph")


def shortest_path(chip: Chip, a: int, b: int,
                  rng: random.Random | None = None) -> list[int]:
    """A shortest swap path from a to b; rng picks among equal-length ones,
    which ``Chip.swap_next_hops`` lists hop by hop."""
    if a not in chip.swap_distances[b]:
        raise RoutingError(f"no swap path between qubits {a} and {b}")
    hops = chip.swap_next_hops[b]
    path = [a]
    while a != b:
        options = hops[a]
        a = rng.choice(options) if rng else options[0]
        path.append(a)
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

    Each ``busy`` list is sorted by start, and its intervals are disjoint:
    every committed task starts at or after ``earliest``'s answer, so at or
    after the release time of each of its qubits, which is the end of the
    last interval on that qubit's list. So on each zone qubit only the last
    interval that starts before the probe ends can clash, and it has the
    latest end of any that do; one bisection finds it. Zero-length tasks
    (the inits) stay off the lists: they cannot clash, and an init at time 0
    committed after later tasks would break the order. ``blocked`` lists
    gather tasks on different edges, which may overlap, so they are scanned.
    """

    def __init__(self, instance: Instance):
        self.chip = instance.chip
        self.crosstalk = instance.variant == inst.QCC_X
        self.ready = {q: 0 for q in instance.chip.qubits}
        self.busy: dict[int, list[tuple[int, int]]] = \
            {q: [] for q in instance.chip.qubits}
        self.blocked: dict[int, list[tuple[int, int]]] = \
            {q: [] for q in instance.chip.qubits}

    def earliest(self, qubits: Iterable[int], duration: int, not_before: int,
                 two_qubit_loc: tuple[int, int] | None = None) -> int:
        ready = self.ready
        t = not_before
        for q in qubits:
            if ready[q] > t:
                t = ready[q]
        if not self.crosstalk:
            return t
        if two_qubit_loc:
            lists = [self.busy[q]
                     for q in self.chip.crosstalk_zone(*two_qubit_loc)]
            while True:
                after = (t + duration,)     # sorts after every (start, end)
                clash = t                   # with start < t + duration
                for ivs in lists:
                    i = bisect_left(ivs, after)
                    if i and ivs[i - 1][1] > clash:
                        clash = ivs[i - 1][1]
                if clash == t:
                    return t
                t = clash
        lists = [self.blocked[q] for q in qubits]
        while True:
            end = t + duration
            clash = max((e for ivs in lists for s, e in ivs
                         if s < end and t < e), default=None)
            if clash is None:
                return t
            t = clash

    def commit(self, task: GateTask) -> None:
        end = task.end
        ready = self.ready
        for q in task.qubits:
            if end > ready[q]:
                ready[q] = end
        if not (self.crosstalk and task.duration):
            return
        interval = (task.start, end)
        for q in task.qubits:
            self.busy[q].append(interval)
        if task.kind in TWO_QUBIT_KINDS:
            for q in self.chip.crosstalk_zone(*task.location):
                self.blocked[q].append(interval)


def _identity_inits(instance: Instance) -> list[GateTask]:
    if instance.variant != inst.QCC_I:
        return []
    return [init_task(q, q) for q in instance.chip.qubits]


def _greedy_placement(instance: Instance, rng: random.Random) -> dict[int, int]:
    """Free-placement heuristic: high-degree goal states near the center.

    A qubit the swap edges do not connect to a placed partner costs
    infinity, so a partner lands in the same swap component when one is
    free."""
    chip = instance.chip
    dist = chip.swap_distances
    inf = float("inf")
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
            cost = {q: sum(dist[q].get(p, inf) for p in placed_partners)
                    for q in free}
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


def _swap_states(loc: dict[int, int], holder: dict[int, int], u: int,
                 v: int) -> None:
    """Exchange the states on qubits u and v; every qubit holds a state."""
    su, sv = holder[u], holder[v]
    holder[u], holder[v] = sv, su
    loc[su], loc[sv] = v, u


def solve_sequential_baseline(instance: Instance) -> Schedule:
    """One goal after another along shortest paths; certifies the horizon bound."""
    chip = instance.chip
    ps = chip.ps_durations
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
        duration = ps[path[m]][path[m + 1]]
        tasks.append(ps_task(path[m], path[m + 1], cursor, duration,
                             goal_index))
        cursor += duration

    def _seq_swap(u: int, v: int, t: int) -> int:
        tasks.append(swap_task(u, v, t, chip.swap_duration))
        _swap_states(loc, holder, u, v)
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
    """Interleaving goal router: nearest pending goal first, tasks start ASAP.

    Raises ``RoutingError`` when the placement leaves a goal's states on
    qubits the swap edges do not connect."""
    chip = instance.chip
    rng = random.Random(seed)
    placement = _greedy_placement(instance, rng) \
        if instance.variant == inst.QCC_I else None
    loc = _initial_locations(instance, placement)
    require_routable(instance, loc)
    holder = {q: s for s, q in loc.items()}
    tl = _Timeline(instance)
    earliest = tl.earliest
    tasks: list[GateTask] = []
    if instance.variant == inst.QCC_I:
        for q in chip.qubits:
            tasks.append(init_task(q, holder[q]))
    dist = chip.swap_distances
    ps = chip.ps_durations
    swap = chip.swap_duration
    mix_end: dict[int, int] = {}
    goal_ps_end: dict[int, int] = {}

    def commit(task: GateTask) -> None:
        tl.commit(task)
        tasks.append(task)

    def do_swap(u: int, v: int) -> None:
        loc_uv = (u, v)
        commit(swap_task(u, v, earliest(loc_uv, swap, 0, loc_uv), swap))
        _swap_states(loc, holder, u, v)

    def run_goal(goal_index: int, s1: int, s2: int, stage: int) -> None:
        path = shortest_path(chip, loc[s1], loc[s2], rng)
        d = len(path) - 1
        best, splits = None, []                # the cheapest m, ascending
        for m in range(d):
            cost = max(m, d - 1 - m) * swap + ps[path[m]][path[m + 1]]
            if best is None or cost < best:
                best, splits = cost, [m]
            elif cost == best:
                splits.append(m)
        m = rng.choice(splits)
        for i in range(m):
            do_swap(path[i], path[i + 1])
        for i in range(d, m + 1, -1):
            do_swap(path[i], path[i - 1])
        u, v = loc_uv = path[m], path[m + 1]
        duration = ps[u][v]
        not_before = 0
        if stage == 2:
            not_before = max(mix_end[s1], mix_end[s2])
        start = earliest(loc_uv, duration, not_before, loc_uv)
        commit(ps_task(u, v, start, duration, goal_index))
        for s in (s1, s2):
            goal_ps_end[s] = max(goal_ps_end.get(s, 0), start + duration)

    def run_stage(stage: int) -> None:
        base = 0 if stage == 1 else instance.goal_count
        pending = [(o, *instance.goal_pairs[o])
                   for o in range(base + 1, base + instance.goal_count + 1)]
        while pending:
            nearest, ties = None, []           # nearest goals, ascending
            for row in pending:
                d = dist[loc[row[1]]][loc[row[2]]]
                if nearest is None or d < nearest:
                    nearest, ties = d, [row]
                elif d == nearest:
                    ties.append(row)
            row = rng.choice(ties)
            pending.remove(row)
            run_goal(*row, stage)

    run_stage(1)
    if instance.stages == 2:
        for s in range(1, instance.state_count + 1):
            q = loc[s]
            start = earliest((q,), chip.mix_duration, goal_ps_end.get(s, 0))
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

    Under qcc-i the baseline keeps every state on its own qubit, which may
    leave a goal's states apart on the swap graph where another placement
    would not. Then the baseline gives no incumbent, and neither does a
    restart whose placement splits a goal; the first restart that returns a
    schedule is recorded, and if none does, the baseline's ``RoutingError``
    is raised.
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

    try:
        best = solve_sequential_baseline(instance)
    except RoutingError as exc:
        if instance.variant != inst.QCC_I:
            raise
        best, unroutable = None, exc
    else:
        record(best, "baseline")
    restarts = 0
    while ((budget_s is None or time.monotonic() - t0 < budget_s)
           and (max_restarts is None or restarts < max_restarts)):
        restarts += 1
        try:
            candidate = solve_greedy(instance, seed=rng.getrandbits(32))
        except RoutingError:   # a free placement that splits a goal
            continue
        if best is None or candidate.objective() < best.objective():
            best = candidate
            record(best, "greedy")
    if best is None:
        raise unroutable
    return AnytimeResult(best=best, incumbents=incumbents)
