"""Fast satisficing schedule construction.

Two engines: a strictly sequential baseline whose makespan realizes the
horizon bound certificate, and an event-driven greedy that interleaves goals
on the timeline. ``solve_anytime`` wraps both in a randomized-restart loop
that records each strictly improving incumbent.

Both walk shortest swap paths through ``Chip.swap_next_hops`` and read gate
durations from ``Chip.ps_durations``, tables the chip builds once. They
keep their state in lists indexed by qubit or state and record each
committed task as a row for ``Schedule.from_tasks``. The greedy checks
once, after placement, that the swap edges connect each goal's states;
states move only along swap edges, so that cannot change. It picks the
nearest goal from ``Chip.swap_distances`` and routes it by its timeline's
per-qubit release times: at each hop it keeps the next hops released
first, and it splits the path where the goal's ps gate would end first.
Under qcc-x that price ignores crosstalk, so it is a lower bound on the
end; the timeline itself reads crosstalk zones from
``Chip.crosstalk_zones`` and bisects each qubit's sorted crosstalk
intervals. ``solve_anytime`` passes each restart the incumbent's
objective, so a restart that does not beat it builds nothing.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from . import instance as inst
from .instance import Chip, Instance
from .schedule import INIT, MIX, PS, SWAP, Incumbent, Schedule


class RoutingError(ValueError):
    """A goal's states cannot be brought together over swap-enabled edges."""


def all_pairs_distances(chip: Chip) -> list[list[float]]:
    """The chip's cached swap-distance table; read it, do not mutate it."""
    return chip.swap_distances


def require_routable(instance: Instance,
                     loc: Sequence[int] | None = None) -> None:
    """Raise ``RoutingError`` for the first goal whose states sit on qubits
    the swap edges do not connect, with the states where ``loc`` (indexed
    by state) puts them, or on their own qubits. Without ``loc``, free
    placement (qcc-i) puts the states anywhere, so it is left to the
    solvers."""
    if loc is None:
        if instance.variant == inst.QCC_I:
            return
        loc = range(instance.state_count + 1)
    dist = instance.chip.swap_distances
    for g, (s1, s2) in enumerate(instance.goals, start=1):
        if dist[loc[s1]][loc[s2]] == float("inf"):
            raise RoutingError(f"goal {g} is unreachable on the swap graph")


def shortest_path(chip: Chip, a: int, b: int,
                  rng: random.Random | None = None,
                  ready: Sequence[int] | None = None) -> list[int]:
    """A shortest swap path from a to b, hop by hop through the options
    ``Chip.swap_next_hops`` lists. Without rng it takes the first option.
    With rng it keeps the options whose release time in ``ready`` (indexed
    by qubit) is lowest, and draws among those only when more than one is
    left."""
    if chip.swap_distances[b][a] == float("inf"):
        raise RoutingError(f"no swap path between qubits {a} and {b}")
    hops = chip.swap_next_hops[b]
    path = [a]
    while a != b:
        options = hops[a]
        if rng is not None and len(options) > 1:
            soonest = min([ready[q] for q in options])
            options = [q for q in options if ready[q] == soonest]
            a = options[0] if len(options) == 1 else rng.choice(options)
        else:
            a = options[0]
        path.append(a)
    return path


def _split_ends(ready: Sequence[int], path: Sequence[int], swap: int,
                ps: Sequence[Sequence[int]], not_before: int) -> list[int]:
    """When each split of ``path`` would end its ps gate, from the release
    times ``ready`` (indexed by qubit), in one pass each way.

    Split m swaps the state on ``path[0]`` along the path to ``path[m]``,
    the state on ``path[d]`` back to ``path[m+1]``, and runs the goal's ps
    gate on that edge, no earlier than ``not_before``. ``left[m]`` is when
    the first state reaches ``path[m]``; walking back from ``path[d]``, ``t``
    is when the second state reaches ``path[m+1]``. The two chains share no
    qubit. Without crosstalk this is the end that committing the split
    gives; under qcc-x crosstalk can only delay the tasks, so it is a lower
    bound."""
    d = len(path) - 1
    t = ready[path[0]]
    left = [t]
    for q in path[1:d]:
        r = ready[q]
        t = (t if t > r else r) + swap
        left.append(t)
    ends = [0] * d
    t = ready[path[d]]
    m, v = d - 1, path[d]
    while m >= 0:
        u = path[m]
        end = left[m]
        if t > end:
            end = t
        if not_before > end:
            end = not_before
        ends[m] = end + ps[u][v]
        r = ready[u]                # the second state swaps onto u
        t = (t if t > r else r) + swap
        m, v = m - 1, u
    return ends


class _Timeline:
    """Per-qubit release times, plus crosstalk intervals under qcc-x.

    ``earliest`` and ``commit`` take a task's qubits, one for a mix or an
    init and the two ends of its edge for a swap or a ps gate, and its
    duration or its interval. A qubit's release time is the latest end of
    its committed tasks, so a probe that starts at its qubits' release
    times never overlaps their own tasks. Without crosstalk that start is
    the answer. Under qcc-x a two-qubit probe also clashes with the tasks on
    its zone's qubits (``busy``). That covers every two-qubit task whose
    zone holds one of the probe's qubits, since such a task runs on a
    neighbor of that qubit. A one-qubit probe clashes with the two-qubit
    tasks whose zone holds its qubit (``blocked``). The probe jumps past the
    latest clashing end until nothing clashes.

    Each ``busy`` list is sorted by start, and its intervals are disjoint:
    every committed task starts at or after ``earliest``'s answer, so at or
    after the release time of each of its qubits, which is the end of the
    last interval on that qubit's list. So on each zone qubit only the last
    interval that starts before the probe ends can clash, and it has the
    latest end of any that do; one bisection finds it. Zero-length tasks
    (the inits) stay off the lists: they cannot clash, and an init at time 0
    committed after later tasks would break the order. ``blocked`` lists
    gather tasks on different edges, which may overlap, so they are scanned.
    ``ready``, ``busy`` and ``blocked`` are indexed by qubit.
    """

    def __init__(self, instance: Instance):
        chip = instance.chip
        self.zones = chip.crosstalk_zones
        self.crosstalk = instance.variant == inst.QCC_X
        self.ready = [0] * (chip.qubit_count + 1)
        self.busy: list[list[tuple[int, int]]] = \
            [[] for _ in range(chip.qubit_count + 1)]
        self.blocked: list[list[tuple[int, int]]] = \
            [[] for _ in range(chip.qubit_count + 1)]

    def earliest(self, qubits: tuple[int, ...], duration: int,
                 not_before: int) -> int:
        ready = self.ready
        t = not_before
        for q in qubits:
            if ready[q] > t:
                t = ready[q]
        if not self.crosstalk:
            return t
        if len(qubits) == 2:
            busy = self.busy
            lists = [busy[q] for q in self.zones[qubits[0]][qubits[1]]]
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

    def commit(self, qubits: tuple[int, ...], start: int, end: int) -> None:
        ready = self.ready
        for q in qubits:
            if end > ready[q]:
                ready[q] = end
        if not self.crosstalk or start == end:
            return
        interval = (start, end)
        for q in qubits:
            self.busy[q].append(interval)
        if len(qubits) == 2:
            blocked = self.blocked
            for q in self.zones[qubits[0]][qubits[1]]:
                blocked[q].append(interval)


def _greedy_placement(instance: Instance, rng: random.Random) -> list[int]:
    """Free-placement heuristic: high-degree goal states near the center;
    returns each state's qubit, indexed by state.

    The first state goes to a qubit of the lowest ``Chip.placement_ranks``:
    the center of a largest swap component, so a qubit no swap edge reaches
    never wins while another can. A qubit the swap edges do not connect to a
    placed partner costs infinity, so a partner lands in the same swap
    component when one is free. States no goal names sort last and take the
    lowest free qubits."""
    chip = instance.chip
    dist = chip.swap_distances
    ranks = chip.placement_ranks
    n = instance.state_count
    partners: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in instance.goals:
        partners[a].append(b)
        partners[b].append(a)

    loc = [0] * (n + 1)                        # 0 until the state is placed
    free = list(chip.qubits)
    for s in sorted(range(1, n + 1), key=lambda s: (-len(partners[s]), s)):
        if not partners[s]:
            loc[s] = free.pop(0)
            continue
        placed_partners = [loc[p] for p in partners[s] if loc[p]]
        if placed_partners:
            cost = {q: sum(dist[q][p] for p in placed_partners)
                    for q in free}
        else:
            cost = {q: ranks[q] for q in free}
        best = min(cost.values())
        q = rng.choice([c for c in free if cost[c] == best])
        loc[s] = q
        free.remove(q)
    return loc


def _swap_states(loc: list[int], holder: list[int], u: int, v: int) -> None:
    """Exchange the states on qubits u and v; every qubit holds a state."""
    su, sv = holder[u], holder[v]
    holder[u], holder[v] = sv, su
    loc[su], loc[sv] = v, u


def solve_sequential_baseline(instance: Instance) -> Schedule:
    """One goal after another along shortest paths; certifies the horizon bound."""
    chip = instance.chip
    ps = chip.ps_durations
    swap = chip.swap_duration
    loc = list(range(instance.state_count + 1))      # state -> qubit
    holder = list(loc)                               # qubit -> state
    rows: list[tuple] = []
    if instance.variant == inst.QCC_I:
        rows = [(INIT, q, 0, 0, None, q) for q in chip.qubits]
    cursor = 0

    def run_goal(goal_index: int) -> None:
        nonlocal cursor
        s1, s2 = instance.goal_pairs[goal_index]
        path = shortest_path(chip, loc[s1], loc[s2])
        d = len(path) - 1
        m = (d - 1) // 2
        for i in range(m):                     # s1 moves right to path[m]
            seq_swap(path[i], path[i + 1])
        for i in range(d, m + 1, -1):          # s2 moves left to path[m+1]
            seq_swap(path[i], path[i - 1])
        u, v = path[m], path[m + 1]
        duration = ps[u][v]
        rows.append((PS, (u, v) if u < v else (v, u), cursor, duration,
                     goal_index, None))
        cursor += duration

    def seq_swap(u: int, v: int) -> None:
        nonlocal cursor
        rows.append((SWAP, (u, v) if u < v else (v, u), cursor, swap, None,
                     None))
        _swap_states(loc, holder, u, v)
        cursor += swap

    for o in range(1, instance.goal_count + 1):
        run_goal(o)
    if instance.stages == 2:
        for s in range(1, instance.state_count + 1):
            rows.append((MIX, loc[s], cursor, chip.mix_duration, None, s))
        cursor += chip.mix_duration
        for o in range(instance.goal_count + 1, 2 * instance.goal_count + 1):
            run_goal(o)
    return Schedule.from_tasks(rows, instance_id=instance.instance_id)


def solve_greedy(instance: Instance, seed: int = 0,
                 beat: tuple[int, int] | None = None) -> Schedule | None:
    """Interleaving goal router: nearest pending goal first, tasks start ASAP.

    Each goal's path takes, hop by hop, a next hop whose qubit the timeline
    releases first (``shortest_path`` with ``ready``). The path is split
    where ``_split_ends`` prices the goal's ps gate to end first, from the
    same release times; crosstalk is not priced, so under qcc-x the gate
    may end later than priced. Ties between nearest goals, next hops and
    splits are drawn from the seeded rng, and only when more than one is
    left.

    The restart records each task as a row and tracks its makespan and swap
    count as it goes. When ``beat`` is given and ``(makespan, swaps) >=
    beat``, it returns None and builds no schedule; otherwise it returns
    the schedule. The rng draws do not depend on ``beat``.

    Raises ``RoutingError`` when the placement leaves a goal's states on
    qubits the swap edges do not connect."""
    chip = instance.chip
    n = instance.state_count
    rng = random.Random(seed)
    if instance.variant == inst.QCC_I:
        loc = _greedy_placement(instance, rng)
    else:
        loc = list(range(n + 1))               # state -> qubit
    require_routable(instance, loc)
    holder = [0] * (n + 1)                     # qubit -> state
    for s in range(1, n + 1):
        holder[loc[s]] = s
    tl = _Timeline(instance)
    earliest, commit, ready = tl.earliest, tl.commit, tl.ready
    rows: list[tuple] = []
    if instance.variant == inst.QCC_I:
        rows = [(INIT, q, 0, 0, None, holder[q]) for q in chip.qubits]
    dist = chip.swap_distances
    ps = chip.ps_durations
    swap = chip.swap_duration
    mix_end = [0] * (n + 1)
    goal_ps_end = [0] * (n + 1)
    makespan = swaps = 0

    def do_swap(u: int, v: int) -> None:
        uv = (u, v)
        start = earliest(uv, swap, 0)
        commit(uv, start, start + swap)
        rows.append((SWAP, uv if u < v else (v, u), start, swap, None, None))
        _swap_states(loc, holder, u, v)

    def run_goal(goal_index: int, s1: int, s2: int, stage: int) -> None:
        nonlocal makespan, swaps
        path = shortest_path(chip, loc[s1], loc[s2], rng, ready)
        d = len(path) - 1
        not_before = 0
        if stage == 2:
            not_before = max(mix_end[s1], mix_end[s2])
        m = 0
        if d > 1:
            ends = _split_ends(ready, path, swap, ps, not_before)
            first = min(ends)
            if ends.count(first) == 1:
                m = ends.index(first)
            else:
                m = rng.choice([m for m, end in enumerate(ends)
                                if end == first])
        for i in range(m):
            do_swap(path[i], path[i + 1])
        for i in range(d, m + 1, -1):
            do_swap(path[i], path[i - 1])
        swaps += d - 1
        u, v = uv = path[m], path[m + 1]
        duration = ps[u][v]
        start = earliest(uv, duration, not_before)
        end = start + duration
        commit(uv, start, end)
        rows.append((PS, uv if u < v else (v, u), start, duration,
                     goal_index, None))
        for s in (s1, s2):
            if end > goal_ps_end[s]:
                goal_ps_end[s] = end
        if end > makespan:
            makespan = end

    def run_stage(stage: int) -> None:
        base = 0 if stage == 1 else instance.goal_count
        pending = [(o, *instance.goal_pairs[o])
                   for o in range(base + 1, base + instance.goal_count + 1)]
        while pending:
            nearest, ties = math.inf, []       # nearest goals, ascending
            for row in pending:
                d = dist[loc[row[1]]][loc[row[2]]]
                if d > nearest:
                    continue
                if d < nearest:
                    nearest, ties = d, [row]
                else:
                    ties.append(row)
            row = ties[0] if len(ties) == 1 else rng.choice(ties)
            pending.remove(row)
            run_goal(*row, stage)

    run_stage(1)
    if instance.stages == 2:
        mix = chip.mix_duration
        for s in range(1, n + 1):
            q = (loc[s],)
            start = earliest(q, mix, goal_ps_end[s])
            commit(q, start, start + mix)
            rows.append((MIX, loc[s], start, mix, None, s))
            mix_end[s] = start + mix
        run_stage(2)
    if beat is not None and (makespan, swaps) >= beat:
        return None
    return Schedule.from_tasks(rows, instance_id=instance.instance_id)


def _itself(schedule: Schedule) -> Schedule:
    """A router incumbent's ``build``: unlike a lambda, it pickles."""
    return schedule


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

    Each restart is one call of ``solve_greedy`` with the incumbent's
    objective as ``beat`` (None before there is an incumbent), so a
    schedule is built only for a new incumbent.

    Restarts run until ``budget_s`` seconds pass or ``max_restarts`` have
    run, whichever comes first; ``None`` lifts that limit, and one of the two
    must be set. A non-finite ``budget_s`` raises ``ValueError``.

    Under qcc-i the baseline keeps every state on its own qubit, which may
    leave a goal's states apart on the swap graph where another placement
    would not. Then the baseline gives no incumbent, and neither does a
    restart whose placement splits a goal; the first restart that returns a
    schedule is recorded, and if none does, the baseline's ``RoutingError``
    is raised.
    """
    if budget_s is None and max_restarts is None:
        raise ValueError("solve_anytime needs budget_s or max_restarts")
    if budget_s is not None and not math.isfinite(budget_s):
        raise ValueError("budget_s must be finite")
    t0 = time.monotonic()
    rng = random.Random(seed)
    incumbents: list[Incumbent] = []

    def record(schedule: Schedule, source: str) -> None:
        item = Incumbent(time.monotonic() - t0, schedule.makespan,
                         schedule.swap_count, source,
                         build=partial(_itself, schedule))
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
            candidate = solve_greedy(
                instance, seed=rng.getrandbits(32),
                beat=None if best is None else best.objective())
        except RoutingError:   # a free placement that splits a goal
            continue
        if candidate is not None:
            best = candidate
            record(best, "greedy")
    if best is None:
        raise unroutable
    return AnytimeResult(best=best, incumbents=incumbents)
