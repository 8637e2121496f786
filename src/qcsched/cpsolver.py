"""The exact solver: a depth-first branch-and-bound over gate start times.

The paper's exact engine is an interval model (optional tasks tied together
by ``alternative`` and ``noOverlap`` constraints). Here the same rules are
enforced by the search itself, which commits gates event by event, so the
model it reads is just a spec: the instance, a horizon every gate must end
by, and a cap on the swaps per gate. ``search`` emits every lexicographically
improving schedule and proves optimality on exhaustion; a warm-start schedule
can be installed as the initial incumbent.

``check_assignment`` is a second, independent checker of the same rules: it
binds each task of a finished schedule to a slot of the spec (a swap gate
and replica index, an edge and goal, a state and qubit) and checks every
rule against those slots.

Everything here is written from scratch: no external solver is involved, and
no code is shared with the independent validator or the brute-force oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations
from math import ceil

from . import instance as inst
from .bounds import horizon_bound, swap_task_bound
from .instance import Instance
from .router import all_pairs_distances
from .schedule import (GateTask, Schedule, init_task, mix_task, ps_task,
                       swap_task)

OPTIMAL = "optimal"
TIMEOUT = "timeout"
INFEASIBLE = "infeasible"

FIXPOINT = "fixpoint"
CONFLICT = "conflict"


class ModelError(ValueError):
    """A schedule cannot be mapped onto the model, or the model is malformed."""


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class Model:
    """What the search reads. Tighten a field with ``dataclasses.replace``."""

    instance: Instance
    horizon: int      # every gate ends by this time
    swap_cap: int     # swap tasks allowed per swap gate


def build_model(instance: Instance, swap_multiplier: int = 1) -> Model:
    """The spec for ``instance``: the sequential horizon and the swap cap."""
    return Model(instance, horizon_bound(instance),
                 swap_task_bound(instance, swap_multiplier))


def propagate(model: Model) -> str:
    """Root check of the horizon; CONFLICT when no goal can finish by it.

    Every goal needs at least the shortest PS gate; with two stages its
    states also need a mix between the two PS gates.
    """
    instance = model.instance
    chip = instance.chip
    need = chip.min_ps_duration
    if instance.stages == 2:
        need = 2 * chip.min_ps_duration + chip.mix_duration
    if instance.goals and need > model.horizon:
        return CONFLICT
    return FIXPOINT


# ---------------------------------------------------------------------------
# the independent checker (schedule -> spec slots)


def _map_tasks(model: Model, schedule: Schedule):
    """Bind each scheduled task to a slot; returns (bindings, placement,
    reasons).

    bindings: list of (slot name, slot duration, task). Swap tasks take a
    gate's replica indices in increasing start order.
    """
    instance = model.instance
    chip = instance.chip
    free_placement = instance.variant == inst.QCC_I
    swap_gates = {e.pair for e in chip.swap_edges}
    ps_gates = {e.pair: e for e in chip.edges}
    reasons: list[str] = []
    bindings: list[tuple[str, int, GateTask]] = []
    init_states: dict[int, int] = {}

    swaps_by_gate: dict[tuple[int, int], list[GateTask]] = {}
    ps_by_goal: dict[int, list[GateTask]] = {}
    mixes_by_state: dict[int, list[GateTask]] = {}

    for t in schedule.tasks:
        if t.kind == "swap":
            pair = t.location if isinstance(t.location, tuple) else None
            if pair not in swap_gates:
                reasons.append(f"no swap gate at {t.location}")
                continue
            swaps_by_gate.setdefault(pair, []).append(t)
        elif t.kind == "ps":
            g = t.goal_index
            if g is None or not 1 <= g <= instance.total_goals:
                reasons.append(f"ps task has no valid goal index ({g})")
                continue
            ps_by_goal.setdefault(g, []).append(t)
        elif t.kind == "mix":
            s = t.state
            if s is None or not 1 <= s <= instance.state_count:
                reasons.append(f"mix task has no valid state ({s})")
                continue
            if instance.stages == 1:
                reasons.append("mix task in a single-stage model")
                continue
            mixes_by_state.setdefault(s, []).append(t)
        elif t.kind == "init":
            if not free_placement:
                reasons.append("init task in a fixed-placement model")
            elif not isinstance(t.location, int) or t.location not in chip.qubits:
                reasons.append(f"init task on unknown qubit {t.location}")
            elif t.location in init_states:
                reasons.append(f"qubit {t.location} initialized twice")
            else:
                init_states[t.location] = t.state
        else:
            reasons.append(f"unknown task kind {t.kind!r}")

    for pair, tasks in swaps_by_gate.items():
        if len(tasks) > model.swap_cap:
            reasons.append(f"{len(tasks)} swaps on gate {pair} exceed the "
                           f"{model.swap_cap} replica slots")
            continue
        for m, t in enumerate(sorted(tasks, key=lambda t: t.start)):
            bindings.append((f"swap[{pair[0]},{pair[1]}]#{m}",
                             chip.swap_duration, t))
    for g in range(1, instance.total_goals + 1):
        tasks = ps_by_goal.get(g, [])
        if len(tasks) != 1:
            reasons.append(f"goal {g} has {len(tasks)} ps tasks, needs exactly 1")
            continue
        t = tasks[0]
        edge = ps_gates.get(t.location) if isinstance(t.location, tuple) \
            else None
        if edge is None:
            reasons.append(f"ps task for goal {g} on non-edge {t.location}")
            continue
        bindings.append((f"ps[{edge.u},{edge.v}]@{g}", edge.ps_duration, t))
    if instance.stages == 2:
        for s in range(1, instance.state_count + 1):
            tasks = mixes_by_state.get(s, [])
            if len(tasks) != 1:
                reasons.append(f"state {s} has {len(tasks)} mixes, needs exactly 1")
                continue
            t = tasks[0]
            if not isinstance(t.location, int) or t.location not in chip.qubits:
                reasons.append(f"mix of state {s} on unknown qubit {t.location}")
                continue
            bindings.append((f"mix[{s}]@q{t.location}", chip.mix_duration, t))

    init_placement = None
    if free_placement:
        missing = set(chip.qubits) - set(init_states)
        if missing:
            reasons.append(f"qubits {sorted(missing)} have no init task")
        elif sorted(init_states.values()) != list(range(1, instance.state_count + 1)):
            reasons.append("init states are not a permutation of all states")
        else:
            init_placement = tuple(init_states[q] for q in chip.qubits)
    return bindings, init_placement, reasons


def _trace_states(instance: Instance, bindings, init_placement):
    """States held by each binding's qubits when its task starts."""
    if init_placement is not None:
        states = {q: s for q, s in zip(instance.chip.qubits, init_placement)}
    else:
        states = {q: q for q in instance.chip.qubits}
    at_start = {}
    for name, _, t in sorted(bindings, key=lambda b: (b[2].start, b[2].qubits)):
        at_start[name] = tuple(states[q] for q in t.qubits)
        if t.kind == "swap":
            u, v = t.location
            states[u], states[v] = states[v], states[u]
    return at_start


def check_assignment(model: Model, schedule: Schedule):
    """Evaluate every rule against a schedule's slots; (ok, reasons)."""
    instance = model.instance
    chip = instance.chip
    bindings, init_placement, reasons = _map_tasks(model, schedule)

    for name, length, t in bindings:
        if t.duration != length:
            reasons.append(f"{name}: duration {t.duration} != {length}")
        if t.start < 0 or t.start + length > model.horizon:
            reasons.append(f"{name}: window [{t.start}, "
                           f"{t.start + t.duration}) outside [0, {model.horizon}]")

    # disjunctive resources (with the crosstalk extension when applicable)
    crosstalk = instance.variant == inst.QCC_X
    per_qubit: dict[int, list[tuple[str, GateTask, bool]]] = \
        {q: [] for q in chip.qubits}
    for name, _, t in bindings:
        for q in t.qubits:
            if q in per_qubit:
                per_qubit[q].append((name, t, True))
        if crosstalk and isinstance(t.location, tuple):
            for q in chip.crosstalk_zone(*t.location):
                if q in per_qubit:
                    per_qubit[q].append((name, t, False))
    for q, entries in per_qubit.items():
        for i, (na, ta, occ_a) in enumerate(entries):
            for nb, tb, occ_b in entries[i + 1:]:
                if (occ_a or occ_b) and na != nb and ta.overlaps(tb):
                    reasons.append(f"{na} and {nb} collide on qubit {q}")

    # goal endpoints must hold the goal's state pair at gate start
    at_start = _trace_states(instance, bindings, init_placement)
    for name, _, t in bindings:
        if t.kind != "ps":
            continue
        pair = instance.goal_pair(t.goal_index)
        held = at_start.get(name, ())
        if set(held) != set(pair):
            reasons.append(f"{name}: goal {t.goal_index} needs states "
                           f"{pair}, found {held}")

    # each state's mix sits between its stage-1 and stage-2 goals
    if instance.stages == 2:
        ps_of = {t.goal_index: t for _, _, t in bindings if t.kind == "ps"}
        mix_of = {t.state: t for _, _, t in bindings if t.kind == "mix"}
        for g, t in ps_of.items():
            for s in instance.goal_pair(g):
                m = mix_of.get(s)
                if m is None:
                    continue
                if instance.goal_stage(g) == 1 and t.end > m.start:
                    reasons.append(f"mix of state {s} starts before stage-1 "
                                   f"goal {g} ends")
                if instance.goal_stage(g) == 2 and m.end > t.start:
                    reasons.append(f"stage-2 goal {g} starts before mix of "
                                   f"state {s} ends")

    # objective channel consistency
    goal_ends = [t.end for _, _, t in bindings if t.kind == "ps"]
    if schedule.makespan != max(goal_ends, default=0):
        reasons.append(f"stored makespan {schedule.makespan} != "
                       f"{max(goal_ends, default=0)}")
    swaps = sum(1 for _, _, t in bindings if t.kind == "swap")
    if schedule.swap_count != swaps:
        reasons.append(f"stored swap count {schedule.swap_count} != {swaps}")

    return (not reasons), tuple(reasons)


def warm_start(model: Model, schedule: Schedule) -> None:
    """Check a known-good schedule against the spec; hard error on divergence."""
    ok, reasons = check_assignment(model, schedule)
    if not ok:
        raise ModelError("warm-start schedule violates the model: "
                         + "; ".join(reasons))


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class CPIncumbent:
    schedule: Schedule
    found_at: float
    nodes: int


@dataclass
class SearchResult:
    status: str
    best: Schedule | None
    incumbents: list[CPIncumbent] = field(default_factory=list)
    nodes: int = 0


class _OutOfBudget(Exception):
    pass


class _Rec:
    """A committed task during search."""
    __slots__ = ("kind", "qubits", "start", "end", "payload")

    def __init__(self, kind, qubits, start, end, payload):
        self.kind = kind
        self.qubits = qubits
        self.start = start
        self.end = end
        self.payload = payload   # goal index for ps, state for mix

    def rel(self, t):
        return (self.kind, self.qubits, self.payload, self.end - t)


def search(model: Model, incumbent: Schedule | None = None,
           budget_s: float | None = None, node_budget: int | None = None,
           on_incumbent=None) -> SearchResult:
    """Chronological depth-first branch-and-bound to proven optimality.

    At each event time the search branches over every compatible set of gate
    starts (thereby deciding which edge hosts each goal, how many swaps each
    gate runs up to the cap, and the full event order), prunes against
    the lexicographic (makespan, swaps) incumbent with an admissible
    lower bound, and memoizes dominated configurations.  Exhaustion yields
    ``optimal`` (or ``infeasible`` with no solution); hitting the node or
    wall-clock budget yields ``timeout`` with the best schedule so far.
    """
    engine = _Engine(model, budget_s, node_budget, on_incumbent)
    if incumbent is not None:
        warm_start(model, incumbent)   # loud divergence check
        engine.install(incumbent)
    return engine.run()


class _Engine:
    def __init__(self, model: Model, budget_s, node_budget, on_incumbent):
        self.model = model
        self.instance = model.instance
        self.chip = model.instance.chip
        self.horizon = model.horizon
        self.crosstalk = self.instance.variant == inst.QCC_X
        self.tau_swap = self.chip.swap_duration
        self.tau_mix = self.chip.mix_duration
        self.min_ps = self.chip.min_ps_duration
        self.dist = all_pairs_distances(self.chip)
        self.zones = self.chip.crosstalk_zones
        self.free_placement = self.instance.variant == inst.QCC_I
        self.gate_order = sorted(e.pair for e in self.chip.swap_edges)
        self.gate_idx = {pair: i for i, pair in enumerate(self.gate_order)}
        self.swap_cap = model.swap_cap
        self.goal_states = sorted({s for g in self.instance.goals for s in g})
        self.all_goals = frozenset(range(1, self.instance.total_goals + 1))
        self.budget_s = budget_s
        self.node_budget = node_budget
        self.on_incumbent = on_incumbent
        self.best: Schedule | None = None
        self.best_obj: tuple[int, int] | None = None
        self.guide: dict[int, set] = {}
        self.incumbents: list[CPIncumbent] = []
        self.nodes = 0
        self.t0 = time.monotonic()

    def install(self, schedule: Schedule) -> None:
        """Make a warm start the incumbent and the guide for candidate order."""
        self.best = schedule
        self.best_obj = schedule.objective()
        for t in schedule.tasks:
            if t.kind != "init":
                self.guide.setdefault(t.start, set()).add((t.kind, t.qubits))

    def run(self) -> SearchResult:
        if propagate(self.model) == CONFLICT:
            status = TIMEOUT if self.best is not None else INFEASIBLE
            return SearchResult(status, self.best, self.incumbents, 0)
        try:
            self._check_budget()
            for mapping in self._initial_mappings():
                self.memo: dict = {}
                self._root_mapping = mapping
                counts = tuple(0 for _ in self.gate_order)
                self._search(0, mapping, (), self.all_goals, frozenset(),
                             counts, [])
            status = OPTIMAL if self.best is not None else INFEASIBLE
        except _OutOfBudget:
            status = TIMEOUT
        return SearchResult(status, self.best, self.incumbents, self.nodes)

    # -- setup ------------------------------------------------------------
    def _initial_mappings(self):
        alpha = self.chip.qubit_count
        if not self.free_placement:
            yield tuple(range(1, alpha + 1))
            return
        others = [s for s in range(1, alpha + 1) if s not in self.goal_states]
        for qubits in permutations(range(alpha), len(self.goal_states)):
            mapping = [0] * alpha
            for s, q in zip(self.goal_states, qubits):
                mapping[q] = s
            rest = iter(others)
            for q in range(alpha):
                if mapping[q] == 0:
                    mapping[q] = next(rest)
            yield tuple(mapping)

    # -- budget -----------------------------------------------------------
    def _check_budget(self):
        if self.node_budget is not None and self.nodes >= self.node_budget:
            raise _OutOfBudget
        if self.budget_s is not None and (
                self.nodes % 256 == 0 or self.budget_s <= 0):
            if time.monotonic() - self.t0 >= self.budget_s:
                raise _OutOfBudget

    # -- core DFS ---------------------------------------------------------
    def _search(self, t, mapping, running, pending, mixed, counts, committed):
        self.nodes += 1
        self._check_budget()

        while True:
            done = [r for r in running if r.end <= t]
            if not done:
                break
            running = tuple(r for r in running if r.end > t)
            for r in done:
                if r.kind == "swap":
                    u, v = r.qubits
                    m = list(mapping)
                    m[u - 1], m[v - 1] = m[v - 1], m[u - 1]
                    mapping = tuple(m)
                elif r.kind == "ps":
                    pending = pending - {r.payload}
                elif r.kind == "mix":
                    mixed = mixed | {r.payload}

        if not pending:
            self._complete(committed, mapping)
            return

        if self.best_obj is not None:
            mk_lb = t + self._makespan_lower_bound(t, mapping, running,
                                                   pending, mixed)
            if mk_lb > self.best_obj[0]:
                return
            if mk_lb == self.best_obj[0]:
                swaps = sum(counts) + self._swap_lower_bound(mapping, running,
                                                             pending)
                if swaps >= self.best_obj[1]:
                    return

        key = (mapping, tuple(sorted(r.rel(t) for r in running)), pending,
               mixed)
        entries = self.memo.get(key)
        if entries is not None:
            for (t0, c0) in entries:
                if t0 <= t and all(a <= b for a, b in zip(c0, counts)):
                    return
            entries.append((t, counts))
        else:
            self.memo[key] = [(t, counts)]

        candidates = self._candidates(t, mapping, running, pending, mixed,
                                      counts)
        for chosen in self._subsets(candidates):
            active = running + chosen
            if not active:
                continue         # idle forever: dead end
            new_counts = counts
            added = [c for c in chosen if c.kind == "swap"]
            if added:
                lst = list(counts)
                for c in added:
                    lst[self.gate_idx[c.qubits]] += 1
                new_counts = tuple(lst)
            next_t = min(r.end for r in active)
            committed.extend(chosen)
            self._search(next_t, mapping, active, pending, mixed, new_counts,
                         committed)
            if chosen:
                del committed[-len(chosen):]

    def _subsets(self, candidates):
        """Every pairwise-compatible subset of the candidates, depth first,
        each candidate taken before it is left out.

        The explicit stack keeps the Python stack one frame per event time,
        however many candidates an event has.
        """
        stack = [(0, ())]
        while stack:
            idx, chosen = stack.pop()
            if idx == len(candidates):
                yield chosen
                continue
            task = candidates[idx]
            stack.append((idx + 1, chosen))
            if self._compatible(task, chosen):
                stack.append((idx + 1, chosen + (task,)))

    # -- leaf handling ----------------------------------------------------
    def _complete(self, committed, mapping):
        tasks = [self._to_gate_task(r) for r in committed]
        if self.instance.stages == 2:
            mixed_states = {r.payload for r in committed if r.kind == "mix"}
            for s in range(1, self.instance.state_count + 1):
                if s not in mixed_states:
                    tasks.append(self._place_trailing_mix(s, tasks))
        if self.free_placement:
            root = self._root_mapping
            for q in self.chip.qubits:
                tasks.append(init_task(q, root[q - 1]))
        schedule = Schedule.from_tasks(tasks,
                                       instance_id=self.instance.instance_id)
        obj = schedule.objective()
        if self.best_obj is None or obj < self.best_obj:
            self.best = schedule
            self.best_obj = obj
            item = CPIncumbent(schedule, time.monotonic() - self.t0,
                               self.nodes)
            self.incumbents.append(item)
            if self.on_incumbent:
                self.on_incumbent(item)

    def _to_gate_task(self, r: _Rec) -> GateTask:
        if r.kind == "swap":
            return swap_task(*r.qubits, r.start, self.tau_swap)
        if r.kind == "ps":
            return ps_task(*r.qubits, r.start, r.end - r.start, r.payload)
        return mix_task(r.qubits[0], r.start, self.tau_mix, r.payload)

    def _place_trailing_mix(self, state, tasks) -> GateTask:
        """Earliest free 1-qubit slot for a state no goal ever touches."""
        for t in range(self.horizon - self.tau_mix + 1):
            for q in self.chip.qubits:
                clash = False
                for task in tasks:
                    if task.start >= t + self.tau_mix or t >= task.end:
                        continue
                    if q in task.qubits:
                        clash = True
                        break
                    if self.crosstalk and isinstance(task.location, tuple) \
                            and q in self.zones[task.location]:
                        clash = True
                        break
                if not clash:
                    return mix_task(q, t, self.tau_mix, state)
        raise ModelError(f"no room for the mix of state {state} "
                         f"within horizon {self.horizon}")

    # -- candidate generation --------------------------------------------
    def _busy_and_blocked(self, running):
        busy = set()
        blocked = set()
        for r in running:
            busy.update(r.qubits)
            if self.crosstalk and len(r.qubits) == 2:
                blocked.update(self.zones[r.qubits])
        return busy, blocked

    def _gate_ok(self, qubits, busy, blocked, running):
        if any(q in busy for q in qubits):
            return False
        if self.crosstalk:
            if len(qubits) == 2:
                zone = self.zones[qubits]
                if any(q in zone for r in running for q in r.qubits):
                    return False
            if any(q in blocked for q in qubits):
                return False
        return True

    def _compatible(self, task, chosen) -> bool:
        for other in chosen:
            if other.kind == task.kind and task.kind in ("ps", "mix") \
                    and other.payload == task.payload:
                return False
            if set(task.qubits) & set(other.qubits):
                return False
            if self.crosstalk:
                if len(task.qubits) == 2 and \
                        set(other.qubits) & self.zones[task.qubits]:
                    return False
                if len(other.qubits) == 2 and \
                        set(task.qubits) & self.zones[other.qubits]:
                    return False
        return True

    def _mix_started(self, state, running, mixed) -> bool:
        if state in mixed:
            return True
        return any(r.kind == "mix" and r.payload == state for r in running)

    def _candidates(self, t, mapping, running, pending, mixed, counts):
        instance = self.instance
        chip = self.chip
        busy, blocked = self._busy_and_blocked(running)
        ps_deadline = self.horizon
        if self.best_obj is not None:
            ps_deadline = min(ps_deadline, self.best_obj[0])
        out = []
        running_ps_states = {s for r in running if r.kind == "ps"
                             for s in instance.goal_pair(r.payload)}
        for g in sorted(pending):
            s1, s2 = instance.goal_pair(g)
            if instance.stages == 2:
                if instance.goal_stage(g) == 1:
                    if self._mix_started(s1, running, mixed) or \
                            self._mix_started(s2, running, mixed):
                        continue
                elif s1 not in mixed or s2 not in mixed:
                    continue
            for e in chip.edges:
                if {mapping[e.u - 1], mapping[e.v - 1]} != {s1, s2}:
                    continue
                if t + e.ps_duration > ps_deadline:
                    continue
                if self._gate_ok(e.pair, busy, blocked, running):
                    out.append(_Rec("ps", e.pair, t, t + e.ps_duration, g))
        if instance.stages == 2 and t + self.tau_mix <= self.horizon:
            for s in self.goal_states:
                if self._mix_started(s, running, mixed):
                    continue
                if s in running_ps_states:
                    continue
                if any(g in pending and instance.goal_stage(g) == 1
                       for g in self._goals_of(s)):
                    continue
                for q in chip.qubits:
                    if self._gate_ok((q,), busy, blocked, running):
                        out.append(_Rec("mix", (q,), t, t + self.tau_mix, s))
        if t + self.tau_swap <= self.horizon:
            for e in chip.swap_edges:
                if counts[self.gate_idx[e.pair]] >= self.swap_cap:
                    continue
                if self._gate_ok(e.pair, busy, blocked, running):
                    out.append(_Rec("swap", e.pair, t, t + self.tau_swap,
                                    None))
        hints = self.guide.get(t)
        if hints:
            out.sort(key=lambda r: 0 if (r.kind, r.qubits) in hints else 1)
        return out

    def _goals_of(self, state):
        for g in range(1, self.instance.total_goals + 1):
            if state in self.instance.goal_pair(g):
                yield g

    # -- bounds -----------------------------------------------------------
    def _makespan_lower_bound(self, t, mapping, running, pending, mixed):
        instance = self.instance
        running_ps = {r.payload: r.end for r in running if r.kind == "ps"}
        running_mix = {r.payload: r.end for r in running if r.kind == "mix"}
        m = list(mapping)
        for r in running:
            if r.kind == "swap":
                u, v = r.qubits
                m[u - 1], m[v - 1] = m[v - 1], m[u - 1]
        loc = {s: q + 1 for q, s in enumerate(m)}
        lb = 0
        for g in pending:
            if g in running_ps:
                lb = max(lb, running_ps[g] - t)
                continue
            s1, s2 = instance.goal_pair(g)
            d = self.dist[loc[s1]][loc[s2]]
            goal_lb = ceil((d - 1) / 2) * self.tau_swap
            if instance.stages == 2 and instance.goal_stage(g) == 2:
                wait = 0
                for s in (s1, s2):
                    if s in mixed:
                        continue
                    wait = max(wait, running_mix.get(s, t + self.tau_mix) - t)
                goal_lb = max(goal_lb, wait)
            lb = max(lb, goal_lb + self.min_ps)
        for s in self.goal_states:
            base = 0
            n1 = n2 = 0
            for g in self._goals_of(s):
                if g not in pending:
                    continue
                if g in running_ps:
                    base = max(base, running_ps[g] - t)
                elif instance.stages == 2 and instance.goal_stage(g) == 2:
                    n2 += 1
                else:
                    n1 += 1
            mix_term = 0
            if n2 and s not in mixed:
                mix_term = max(0, running_mix.get(s, t + self.tau_mix) - t)
            lb = max(lb, base + (n1 + n2) * self.min_ps + mix_term)
        return lb

    def _swap_lower_bound(self, mapping, running, pending):
        running_ps = {r.payload for r in running if r.kind == "ps"}
        m = list(mapping)
        for r in running:
            if r.kind == "swap":
                u, v = r.qubits
                m[u - 1], m[v - 1] = m[v - 1], m[u - 1]
        loc = {s: q + 1 for q, s in enumerate(m)}
        lb = 0
        for g in pending:
            if g in running_ps:
                continue
            s1, s2 = self.instance.goal_pair(g)
            d = self.dist[loc[s1]][loc[s2]]
            lb = max(lb, ceil((d - 1) / 2))
        return lb

