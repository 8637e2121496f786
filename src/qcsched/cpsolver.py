"""The exact solver: a depth-first branch-and-bound over gate start times.

The paper's exact engine is an interval model (optional tasks tied together
by ``alternative`` and ``noOverlap`` constraints). Here the same rules are
enforced by the search itself, which commits gates event by event, so the
model it reads is just a spec: the instance and a horizon every gate must
end by. ``search`` emits every lexicographically improving schedule and
proves optimality on exhaustion; a warm-start schedule can be installed as
the initial incumbent.

``check_assignment`` is a second, independent checker of the same rules: it
binds each task of a finished schedule to a slot of the spec (a swap gate,
an edge and goal, a state and qubit) and checks every rule against those
slots.

Everything here is written from scratch: no external solver is involved, and
no code is shared with the independent validator or the brute-force oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import permutations

from . import instance as inst
from .bounds import horizon_bound
from .instance import Instance
# the search reads chip.swap_hops; all_pairs_distances stays importable
# here because perfbench/tracing.py wraps it under this module's name
from .router import all_pairs_distances, require_routable  # noqa: F401
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


def build_model(instance: Instance) -> Model:
    """The spec for ``instance``: the sequential horizon. Raises
    ``RoutingError`` when the swap edges keep a goal's states apart."""
    require_routable(instance)
    return Model(instance, horizon_bound(instance))


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

    bindings: list of (slot name, slot duration, task). A swap's slot is
    named by its gate and its index in the schedule.
    """
    instance = model.instance
    chip = instance.chip
    free_placement = instance.variant == inst.QCC_I
    swap_gates = {e.pair for e in chip.swap_edges}
    ps_gates = {e.pair: e for e in chip.edges}
    reasons: list[str] = []
    bindings: list[tuple[str, int, GateTask]] = []
    init_states: dict[int, int] = {}

    ps_by_goal: dict[int, list[GateTask]] = {}
    mixes_by_state: dict[int, list[GateTask]] = {}

    for i, t in enumerate(schedule.tasks):
        if t.kind == "swap":
            pair = t.location if isinstance(t.location, tuple) else None
            if pair in swap_gates:
                bindings.append((f"swap[{pair[0]},{pair[1]}]#{i}",
                                 chip.swap_duration, t))
            else:
                reasons.append(f"no swap gate at {t.location}")
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
    makespan: int
    swap_count: int
    found_at: float
    nodes: int
    build: object = field(repr=False, compare=False)   # makes ``schedule``

    @cached_property
    def schedule(self) -> Schedule:
        return self.build()


@dataclass
class SearchResult:
    status: str
    best: Schedule | None
    incumbents: list[CPIncumbent] = field(default_factory=list)
    nodes: int = 0


class _OutOfBudget(Exception):
    pass


class _Rec:
    """A committed task during search, with its bits (see ``_Engine``)."""
    __slots__ = ("kind", "qubits", "start", "end", "payload", "qmask",
                 "zmask", "pbit", "sig")

    def __init__(self, kind, qubits, start, end, payload, qmask, zmask, pbit):
        self.kind = kind
        self.qubits = qubits
        self.start = start
        self.end = end
        self.payload = payload   # ps: goal, mix: state, swap: gate bit
        self.qmask = qmask
        self.zmask = zmask
        self.pbit = pbit
        self.sig = (kind, qubits, payload)   # with end - t, its memo key part


def search(model: Model, incumbent: Schedule | None = None,
           budget_s: float | None = None, node_budget: int | None = None,
           on_incumbent=None) -> SearchResult:
    """Chronological depth-first branch-and-bound to proven optimality.

    At each event time the search branches over every compatible set of gate
    starts (thereby deciding which edge hosts each goal, how many swaps each
    gate runs, and the full event order), prunes every node against the
    (makespan, swaps) incumbent, or the horizon before there is one, with
    an admissible lower bound, and memoizes dominated configurations. No
    swap starts on a gate at the instant the previous swap on that gate
    ends: deleting both keeps every other task where it is and saves two
    swaps, so no lexicographic optimum has such a pair. Exhaustion yields
    ``optimal`` (or ``infeasible`` with no solution); hitting the node or
    wall-clock budget yields ``timeout`` with the best schedule so far.
    """
    engine = _Engine(model, budget_s, node_budget, on_incumbent)
    if incumbent is not None:
        warm_start(model, incumbent)   # loud divergence check
        engine.warm, engine.best_obj = incumbent, incumbent.objective()
    return engine.run()


_IDLE = float("inf")   # next event time when nothing runs


class _Engine:
    """One search: the gate tables of the chip and instance, and the DFS.

    A node's state is carried down the DFS, changed by what its parent
    commits and by what ends at the node's time ``t``:

    - ``mapping`` (qubit - 1 -> state) and its inverse ``loc`` (state ->
      qubit) include every committed swap, running ones too, so ``loc`` is
      the placement the bound needs. The memo key stays exact, as running
      swaps are in it and sit on disjoint qubits; ps candidates use free
      qubits only, where no running swap moves a state.
    - ``pending`` has bit ``g`` for each goal whose ps gate has not ended,
      ``mixed`` bit ``s`` for each state whose mix has ended, and
      ``swaps`` counts the swaps committed so far. ``undo``, built at the
      node, has the gate bit of each swap that ends at ``t``.

    Fit tests are on integer bit masks. A task's ``qmask`` has bit ``q`` for
    each of its qubits, and its ``zmask`` the bits of its crosstalk zone
    (two-qubit gates under qcc-x only, else 0). Its ``pbit`` marks what it
    runs at most once: bit ``g`` for the ps gate of goal ``g``, bit
    ``G + s`` for the mix of state ``s`` (``G`` goals in all), 0 for a swap.

    ``best_obj`` bounds every node: the incumbent's (makespan, swaps), or
    (horizon, ∞) before one. One pass over the running tasks retires what
    ends at ``t`` and gathers what the bound reads; then each term of the
    makespan lower bound (the longest running ps gate, the swap rounds of
    the farthest waiting goal plus a ps gate, each state's chain of ps
    gates) is tested against the room left, and the first that exceeds it
    prunes. A tie is broken by the swaps plus those rounds. ``chip.swap_hops``
    gives the rounds, and is infinite for states the swap edges keep apart.
    An improving leaf keeps its committed tasks; ``_build`` makes them a
    ``Schedule`` only when the incumbent is read.
    """

    def __init__(self, model: Model, budget_s, node_budget, on_incumbent):
        self.model = model
        self.instance = model.instance
        self.chip = chip = model.instance.chip
        self.horizon = model.horizon
        self.crosstalk = self.instance.variant == inst.QCC_X
        self.tau_swap = chip.swap_duration
        self.tau_mix = chip.mix_duration
        self.min_ps = chip.min_ps_duration
        self.hops = chip.swap_hops
        self.zones = chip.crosstalk_zones
        self.free_placement = self.instance.variant == inst.QCC_I
        self.two_stage = self.instance.stages == 2
        self.goal_states = self.instance.goal_states
        goals = self.instance.total_goals
        mix_bit = {s: 1 << (goals + s) for s in self.goal_states}
        # per goal: (g, goal bit, states, stage 2?, state bits, mix bits)
        self.goal_rows = tuple(
            (g, 1 << g, s1, s2, self.instance.goal_stage(g) == 2,
             (1 << s1) | (1 << s2), mix_bit[s1] | mix_bit[s2])
            for g, (s1, s2) in self.instance.goal_pairs.items())
        # per goal state: (s, state bit, mix bit, goal bits, stage-1 and
        # stage-2 goal bits)
        stage1 = (1 << (len(self.instance.goals) + 1)) - 2
        self.state_rows = []
        for s in self.goal_states:
            gs = sum(1 << g for g in self.instance.state_goals[s])
            self.state_rows.append((s, 1 << s, mix_bit[s], gs, gs & stage1,
                                    gs & ~stage1))
        self.qubit_bits = tuple((q, 1 << q) for q in chip.qubits)

        def zone(pair):
            return sum(1 << q for q in self.zones[pair]) \
                if self.crosstalk else 0
        # the ps gate on the edge between two qubits: (pair, ps duration,
        # qubit mask, zone mask), or None; indexed [qubit][qubit]
        self.ps_at = [[None] * (chip.qubit_count + 1)
                      for _ in range(chip.qubit_count + 1)]
        for e in chip.edges:
            row = (e.pair, e.ps_duration, (1 << e.u) | (1 << e.v),
                   zone(e.pair))
            self.ps_at[e.u][e.v] = self.ps_at[e.v][e.u] = row
        # per swap gate: (pair, qubit mask, zone mask, gate bit)
        self.swap_gates = tuple(
            (e.pair, (1 << e.u) | (1 << e.v), zone(e.pair), 1 << i)
            for i, e in enumerate(chip.swap_edges))
        self.budget_s = budget_s
        self.node_budget = node_budget
        self.on_incumbent = on_incumbent
        self.warm: Schedule | None = None
        self.best_obj = (self.horizon, float("inf"))
        self.incumbents: list[CPIncumbent] = []
        self.nodes = 0
        self.t0 = time.monotonic()

    def run(self) -> SearchResult:
        if propagate(self.model) == CONFLICT:
            status = TIMEOUT if self.warm is not None else INFEASIBLE
            return SearchResult(status, self.warm, self.incumbents, 0)
        goals = self.instance.total_goals
        try:
            self._check_budget()
            for mapping in self._initial_mappings():
                self.memo: dict = {}
                self._root_mapping = mapping
                loc = [0] * (len(mapping) + 1)    # state -> qubit
                for q, s in enumerate(mapping, 1):
                    loc[s] = q
                self._search(0, mapping, loc, (), (1 << (goals + 1)) - 2,
                             0, 0, [])
            status = OPTIMAL if self.incumbents or self.warm else INFEASIBLE
        except _OutOfBudget:
            status = TIMEOUT
        # each incumbent's build refers to the engine: hand the list over,
        # so no cycle keeps the engine and its memo alive after the result
        found, self.incumbents = self.incumbents, None
        best = found[-1].schedule if found else self.warm
        return SearchResult(status, best, found, self.nodes)

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
    def _search(self, t, mapping, loc, running, pending, mixed, swaps,
                committed):
        self.nodes += 1
        self._check_budget()

        still = []
        first = _IDLE        # the earliest end of what keeps running
        undo = 0             # gates whose swap ends at t: none starts on them
        started = 0          # pbits of what keeps running
        last = t             # the latest end of a running ps gate
        for r in running:    # t is the end of one or more of them
            end = r.end
            if end > t:
                still.append(r)
                started |= r.pbit
                if end < first:
                    first = end
                if end > last and r.kind == "ps":
                    last = end
            elif r.kind == "ps":
                pending &= ~r.pbit
            elif r.kind == "mix":
                mixed |= 1 << r.payload
            else:
                undo |= r.payload
        running = tuple(still)

        # Prune when the time left to the last goal gate, lb, exceeds the
        # room to the bound's makespan, or ties it and the swaps cannot beat
        # the bound's; each term of lb is tested as it is found.
        room = self.best_obj[0] - t   # at a leaf: (t, swaps) >= best_obj
        lb = last - t
        if lb > room:
            return
        waiting = pending & ~started  # goals whose ps gate has not started
        rounds = 0           # the most swap rounds a waiting goal needs
        if waiting:
            hops = self.hops
            for _, bit, s1, s2, _, _, _ in self.goal_rows:
                if waiting & bit:
                    h = hops[loc[s1]][loc[s2]]
                    if h > rounds:
                        rounds = h
            min_ps = self.min_ps
            term = rounds * self.tau_swap + min_ps
            if term > room:
                return
            if term > lb:
                lb = term
            # a state's waiting ps gates run one after another, after its
            # running ps gate and, before stage 2, its mix
            for s, sbit, mbit, goals, _, later in self.state_rows:
                chain = waiting & goals
                if not chain:
                    continue
                term = chain.bit_count() * min_ps
                if started & goals:
                    term += self._left(running, goals, t)
                if chain & later and not mixed & sbit:
                    term += self._left(running, mbit, t) if started & mbit \
                        else self.tau_mix
                if term > room:
                    return
                if term > lb:
                    lb = term
        if lb == room and swaps + rounds >= self.best_obj[1]:
            return
        if not pending:
            self._complete(t, swaps, committed)
            return

        key = (mapping, tuple(sorted([(r.sig, r.end - t) for r in running])),
               pending, mixed)
        entries = self.memo.get(key)
        if entries is not None:
            for (t0, s0) in entries:
                if t0 <= t and s0 <= swaps:
                    return
            entries.append((t, swaps))
        else:
            self.memo[key] = [(t, swaps)]

        candidates = self._candidates(t, loc, running, pending, mixed, undo)
        for chosen, next_t in self._subsets(candidates, first):
            if next_t == _IDLE:
                continue         # idle forever: dead end
            m, pos, n = mapping, loc, swaps
            for r in chosen:     # a swap is applied when it is committed
                if r.kind == "swap":
                    if m is mapping:
                        m, pos = list(m), list(pos)
                    u, v = r.qubits
                    a, b = m[u - 1], m[v - 1]
                    m[u - 1], m[v - 1] = b, a
                    pos[a], pos[b] = v, u
                    n += 1
            if m is not mapping:
                m = tuple(m)
            committed.extend(chosen)
            self._search(next_t, m, pos, running + chosen, pending, mixed, n,
                         committed)
            if chosen:
                del committed[-len(chosen):]

    @staticmethod
    def _left(running, bits, t):
        """Time left on the running task whose pbit is in ``bits``."""
        for r in running:
            if r.pbit & bits:
                return r.end - t

    @staticmethod
    def _subsets(candidates, first):
        """Every pairwise-compatible subset of the candidates, depth first,
        each taken before it is left out, with the earliest end of the
        subset and ``first``. A subset takes each candidate that fits the OR
        of its qubit, payload and zone bits and stacks the state without it;
        the explicit stack keeps one Python frame per event time."""
        end = len(candidates)
        stack = [(0, (), 0, 0, 0, first)]
        while stack:
            idx, chosen, qs, ps, zs, first = stack.pop()
            while idx < end:
                task = candidates[idx]
                idx += 1
                qm, pm, zm = task.qmask, task.pbit, task.zmask
                if not (qm & qs or pm & ps or zm & qs or qm & zs):
                    stack.append((idx, chosen, qs, ps, zs, first))
                    chosen += (task,)
                    qs |= qm
                    ps |= pm
                    zs |= zm
                    if task.end < first:
                        first = task.end
            yield chosen, first

    # -- leaf handling ----------------------------------------------------
    def _complete(self, t, swaps, committed):
        # the last ps gate ended at t; (t, swaps) passed _search's bound
        self.best_obj = (t, swaps)
        self.incumbents.append(CPIncumbent(
            t, swaps, time.monotonic() - self.t0, self.nodes,
            partial(self._build, tuple(committed), self._root_mapping)))
        if self.on_incumbent:
            self.on_incumbent(self.incumbents[-1])

    def _build(self, committed, root) -> Schedule:
        tasks = [self._to_gate_task(r) for r in committed]
        if self.two_stage:
            spans = [(r.start, r.end, r.qmask | r.zmask) for r in committed]
            mixed_states = {r.payload for r in committed if r.kind == "mix"}
            for s in range(1, self.instance.state_count + 1):
                if s not in mixed_states:
                    tasks.append(self._place_trailing_mix(s, spans))
        if self.free_placement:
            tasks += [init_task(q, root[q - 1]) for q in self.chip.qubits]
        return Schedule.from_tasks(tasks,
                                   instance_id=self.instance.instance_id)

    def _to_gate_task(self, r: _Rec) -> GateTask:
        if r.kind == "swap":
            return swap_task(*r.qubits, r.start, self.tau_swap)
        if r.kind == "ps":
            return ps_task(*r.qubits, r.start, r.end - r.start, r.payload)
        return mix_task(r.qubits[0], r.start, self.tau_mix, r.payload)

    def _place_trailing_mix(self, state, spans) -> GateTask:
        """Earliest free 1-qubit slot for a state no goal ever touches.

        ``spans`` holds the (start, end, qubit and zone bits) of the tasks
        placed so far, and gains the new mix's.
        """
        tau = self.tau_mix
        for t in range(self.horizon - tau + 1):
            taken = 0
            for start, end, bits in spans:
                if start < t + tau and t < end:
                    taken |= bits
            for q, qm in self.qubit_bits:
                if not taken & qm:
                    spans.append((t, t + tau, qm))
                    return mix_task(q, t, tau, state)
        raise ModelError(f"no room for the mix of state {state} "
                         f"within horizon {self.horizon}")

    # -- candidate generation --------------------------------------------
    def _candidates(self, t, loc, running, pending, mixed, undo):
        """Gates that fit at ``t``: ps, mix, and swap on no gate of undo.
        A ps gate ends by the bound's makespan; a swap or mix ends ``min_ps``
        earlier, as goal gates of improving schedules all start by then."""
        busy = blocked = started = 0
        for r in running:
            busy |= r.qmask
            blocked |= r.zmask
            started |= r.pbit
        ps_deadline = self.best_obj[0]
        deadline = ps_deadline - self.min_ps   # for swaps and mixes
        two_stage, ps_at = self.two_stage, self.ps_at
        out = []
        for g, bit, s1, s2, later, sbits, mbits in self.goal_rows:
            if not pending & bit:
                continue
            if two_stage:
                if later:
                    if mixed & sbits != sbits:
                        continue
                elif mixed & sbits or started & mbits:
                    continue
            edge = ps_at[loc[s1]][loc[s2]]
            if edge is not None:
                pair, duration, qm, zm = edge
                end = t + duration
                if end <= ps_deadline and not ((qm | zm) & busy
                                               or qm & blocked):
                    out.append(_Rec("ps", pair, t, end, g, qm, zm, bit))
        if two_stage and t + self.tau_mix <= deadline:
            free = ~(busy | blocked)
            held = mixed     # mixed states, and the states of running ps
            for r in running:
                if r.kind == "ps":
                    held |= self.goal_rows[r.payload - 1][5]
            end = t + self.tau_mix
            for s, sbit, mbit, _, first, _ in self.state_rows:
                if held & sbit or started & mbit or pending & first:
                    continue
                for q, qm in self.qubit_bits:
                    if free & qm:
                        out.append(_Rec("mix", (q,), t, end, s, qm, 0, mbit))
        if t + self.tau_swap <= deadline:
            for pair, qm, zm, gbit in self.swap_gates:
                if not (gbit & undo or (qm | zm) & busy or qm & blocked):
                    out.append(_Rec("swap", pair, t, t + self.tau_swap, gbit,
                                    qm, zm, 0))
        return out
