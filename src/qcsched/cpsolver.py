"""The exact solver: a depth-first branch-and-bound over gate start times.

The paper's exact engine is an interval model (optional tasks tied together
by ``alternative`` and ``noOverlap`` constraints). Here the same rules are
enforced by the search itself, which commits gates event by event, so the
model it reads is just a spec: the instance and a horizon every gate must
end by. ``search`` emits every lexicographically improving schedule and
proves optimality on exhaustion; a warm-start schedule can be installed as
the initial incumbent.

Swaps are the optional tasks. A node tries its children in one order: ps
gates, mixes and the swaps that bring a waiting goal's states one hop
closer are taken before they are left out, and every other swap is left out
before it is taken (after SABRE's rule of scoring a swap by the pending
gates it brings closer; Li, Ding and Xie, ASPLOS 2019). So a dive routes
goals instead of filling the horizon with swaps, and the order changes only
which subset comes first, never which subsets there are.

``check_assignment`` is a second, independent checker of the same rules: it
checks each rule once against a finished schedule's tasks, in one section
per rule.

Everything here is written from scratch: no external solver is involved, and
no code is shared with the independent validator or the brute-force oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations

from . import instance as inst
from .instance import Instance
# the search reads chip.swap_hops; all_pairs_distances stays importable
# here because perfbench/tracing.py wraps it under this module's name
from .router import all_pairs_distances, require_routable  # noqa: F401
from .schedule import GateTask, Incumbent, Schedule

OPTIMAL = "optimal"
TIMEOUT = "timeout"
INFEASIBLE = "infeasible"

FIXPOINT = "fixpoint"
CONFLICT = "conflict"


class ModelError(ValueError):
    """A schedule breaks a rule of the model, or the model is malformed."""


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
    return Model(instance, instance.horizon)


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
# the independent checker (schedule -> rules)


def _label(t: GateTask) -> str:
    return f"{t.kind} at {t.location} from {t.start}"


def check_assignment(model: Model, schedule: Schedule):
    """Evaluate every rule against a schedule's tasks; (ok, reasons)."""
    instance = model.instance
    chip = instance.chip
    goal_pairs = instance.goal_pairs
    states = range(1, instance.state_count + 1)
    free_placement = instance.variant == inst.QCC_I
    reasons: list[str] = []
    placed: list[GateTask] = []       # tasks on a gate of the chip
    ps_of: dict[int, list[GateTask]] = {}      # goal -> its ps tasks
    mixes_of: dict[int, list[GateTask]] = {}   # state -> its mixes
    inits: dict[int, int] = {}                 # qubit -> state

    # each task: kind, gate and location, duration, and the window
    for t in schedule.tasks:
        on_qubit = isinstance(t.location, int) and t.location in chip.qubits
        if t.kind == "swap":
            edge = chip.edge_map.get(t.location)
            if edge is None or not edge.swap_enabled:
                reasons.append(f"no swap gate at {t.location}")
                continue
            length = chip.swap_duration
        elif t.kind == "ps":
            g, edge = t.goal_index, chip.edge_map.get(t.location)
            if g not in goal_pairs:
                reasons.append(f"ps task has no valid goal index ({g})")
                continue
            ps_of.setdefault(g, []).append(t)
            if edge is None:
                reasons.append(f"ps task for goal {g} on non-edge {t.location}")
                continue
            length = edge.ps_duration
        elif t.kind == "mix":
            if t.state not in states:
                reasons.append(f"mix task has no valid state ({t.state})")
                continue
            mixes_of.setdefault(t.state, []).append(t)
            if not on_qubit:
                reasons.append(f"mix of state {t.state} on unknown qubit "
                               f"{t.location}")
                continue
            length = chip.mix_duration
        elif t.kind == "init":
            if not free_placement:
                reasons.append("init task in a fixed-placement model")
            elif not on_qubit:
                reasons.append(f"init task on unknown qubit {t.location}")
            elif t.location in inits:
                reasons.append(f"qubit {t.location} initialized twice")
            elif t.start or t.duration:
                reasons.append(f"init of qubit {t.location} is not "
                               f"zero-length at time 0")
            else:
                inits[t.location] = t.state
            continue
        else:
            reasons.append(f"unknown task kind {t.kind!r}")
            continue
        if t.duration != length:
            reasons.append(f"{_label(t)}: duration {t.duration} != {length}")
        if t.start < 0 or t.end > model.horizon:
            reasons.append(f"{_label(t)}: window [{t.start}, {t.end}) "
                           f"outside [0, {model.horizon}]")
        placed.append(t)

    for g in goal_pairs:
        if len(ps_of.get(g, ())) != 1:
            reasons.append(f"goal {g} has {len(ps_of.get(g, ()))} ps tasks, "
                           f"needs exactly 1")
    for s in states:    # one mix between two stages, none in one stage
        if len(mixes_of.get(s, ())) != instance.stages - 1:
            reasons.append(f"state {s} has {len(mixes_of.get(s, ()))} mixes, "
                           f"needs {instance.stages - 1}")
    if free_placement and (len(inits) != len(states)
                           or set(inits.values()) != set(states)):
        reasons.append("init tasks do not put each state on its own qubit")

    # each qubit runs one task at a time; under qcc-x, nothing runs in the
    # crosstalk zone of a running two-qubit gate
    crosstalk = instance.variant == inst.QCC_X
    bucket = {q: [] for q in chip.qubits}    # (task, runs on q?)
    for t in placed:
        for q in t.qubits:
            bucket[q].append((t, True))
        if crosstalk and t.kind != "mix":
            u, v = t.location
            for q in chip.crosstalk_zones[u][v]:
                bucket[q].append((t, False))
    for q, entries in bucket.items():
        for i, (a, a_uses) in enumerate(entries):
            for b, b_uses in entries[i + 1:]:
                if (a_uses or b_uses) and a.overlaps(b):
                    reasons.append(f"{_label(a)} and {_label(b)} collide on "
                                   f"qubit {q}")

    # replaying the swaps, each goal's ps gate starts on the goal's states
    held = {q: inits.get(q) if free_placement else q for q in chip.qubits}
    for t in sorted(placed, key=lambda t: (t.start, t.qubits)):
        if t.kind == "swap":
            u, v = t.location
            held[u], held[v] = held[v], held[u]
        elif t.kind == "ps":
            pair = goal_pairs[t.goal_index]
            found = tuple(held[q] for q in t.qubits)
            if set(found) != set(pair):
                reasons.append(f"{_label(t)}: goal {t.goal_index} needs "
                               f"states {pair}, found {found}")

    # each state's mix sits between its stage-1 and stage-2 goals
    for g, tasks in ps_of.items():
        stage = instance.goal_stage(g)
        for t in tasks:
            for s in goal_pairs[g]:
                for m in mixes_of.get(s, ()):
                    if stage == 1 and t.end > m.start:
                        reasons.append(f"mix of state {s} starts before "
                                       f"stage-1 goal {g} ends")
                    if stage == 2 and m.end > t.start:
                        reasons.append(f"stage-2 goal {g} starts before mix "
                                       f"of state {s} ends")

    # the stored objective
    makespan = max((t.end for ts in ps_of.values() for t in ts), default=0)
    if schedule.makespan != makespan:
        reasons.append(f"stored makespan {schedule.makespan} != {makespan}")
    swaps = sum(1 for t in schedule.tasks if t.kind == "swap")
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


@dataclass
class SearchResult:
    status: str
    best: Schedule | None
    incumbents: list[Incumbent] = field(default_factory=list)
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
    an admissible lower bound, and memoizes dominated configurations. A
    node is pruned when a term of its makespan lower bound exceeds one
    limit: the room to the bound's makespan, less 1 when its swaps plus the
    swap rounds it still needs cannot beat the bound's swaps. No
    swap starts on a gate at the instant the previous swap on that gate
    ends: deleting both keeps every other task where it is and saves two
    swaps, so no lexicographic optimum has such a pair. A node's children
    take its ps gates, mixes and useful swaps (those that move a waiting
    goal's state one hop closer to its partner) first, and leave its other
    swaps out first. Exhaustion yields ``optimal`` (or ``infeasible`` with
    no solution); hitting the node or wall-clock budget yields ``timeout``
    with the best schedule so far. A non-finite ``budget_s`` raises
    ``ValueError``.
    """
    if budget_s is not None and not math.isfinite(budget_s):
        raise ValueError("budget_s must be finite")
    engine = _Engine(model, budget_s, node_budget, on_incumbent)
    if incumbent is not None:
        warm_start(model, incumbent)   # loud divergence check
        engine.warm, engine.best_obj = incumbent, incumbent.objective()
    return engine.run()


_IDLE = float("inf")   # next event time when nothing runs


def _leaf_schedule(model: Model, committed, root) -> Schedule:
    """The schedule of a search leaf: its ``committed`` records, a mix in
    the earliest free one-qubit slot for each state no goal touches (two
    stages), and under qcc-i the inits of its ``root`` mapping (qubit - 1 ->
    state)."""
    instance = model.instance
    chip = instance.chip
    rows = []
    for r in committed:
        duration = r.end - r.start
        if r.kind == "swap":
            rows.append(("swap", r.qubits, r.start, duration, None, None))
        elif r.kind == "ps":
            rows.append(("ps", r.qubits, r.start, duration, r.payload, None))
        else:
            rows.append(("mix", r.qubits[0], r.start, duration, None,
                         r.payload))
    if instance.stages == 2:
        tau = chip.mix_duration
        spans = [(r.start, r.end, r.qmask | r.zmask) for r in committed]
        mixed = {r.payload for r in committed if r.kind == "mix"}
        for s in range(1, instance.state_count + 1):
            if s in mixed:
                continue
            for t in range(model.horizon - tau + 1):
                taken = 0
                for start, end, bits in spans:
                    if start < t + tau and t < end:
                        taken |= bits
                free = [q for q in chip.qubits if not taken & 1 << q]
                if free:
                    break
            else:
                raise ModelError(f"no room for the mix of state {s} "
                                 f"within horizon {model.horizon}")
            spans.append((t, t + tau, 1 << free[0]))
            rows.append(("mix", free[0], t, tau, None, s))
    if instance.variant == inst.QCC_I:
        rows += [("init", q, 0, 0, None, root[q - 1]) for q in chip.qubits]
    return Schedule.from_tasks(rows, instance_id=instance.instance_id)


class _Engine:
    """One search: the gate tables of the chip and instance, and the DFS.

    A node's state is carried down the DFS, changed by what its parent
    commits and by what ends at the node's time ``t``. A node visits its
    children in one loop (``_branch``), which bounds each child before it
    builds anything for it:

    - ``mapping`` (qubit - 1 -> state) and its inverse ``loc`` (state ->
      qubit) include every committed swap, running ones too, so ``loc`` is
      the placement the bound needs. Both are lists that each child's swaps
      change in place and that are restored after the child. The memo key
      stays exact, as running swaps are in it and sit on disjoint qubits;
      ps candidates use free qubits only, where no running swap moves a
      state.
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
    (horizon, ∞) before one. A node's limit is the room to that makespan,
    less 1 when its swaps plus the swap rounds of its farthest waiting goal
    reach the bound's swaps; any term of the makespan lower bound above the
    limit prunes the node. That is ``lb > room``, or ``lb == room`` with no
    fewer swaps to gain. The terms are tested cheapest first: the rounds
    plus a ps gate, which need only ``loc`` and the waiting goals (the
    parent's, less the ps gates the node's parent chose); then, after one
    pass over the running tasks retires what ends at ``t``, the longest
    running ps gate and each state's chain of ps gates. ``chip.swap_hops``
    gives the rounds to an edge of either kind, and is infinite for states
    that no edge can join.
    Only a node that survives builds its memo key, and only then lists its
    candidates: ps gates, mixes, the useful swaps, then the deferred ones.
    A swap is useful when ``chip.swap_next_gates`` has its gate bit for a
    state of a waiting goal and the qubit of the goal's other state.
    ``_subsets`` takes the candidates before the deferred swaps first and
    leaves the deferred swaps out first, so the first child routes and
    every compatible subset is still a child once. An improving leaf keeps
    its committed tasks; ``_leaf_schedule`` makes them a ``Schedule`` only
    when the incumbent is read.
    """

    def __init__(self, model: Model, budget_s, node_budget, on_incumbent):
        self.model = model
        self.instance = model.instance
        self.chip = chip = model.instance.chip
        self.crosstalk = self.instance.variant == inst.QCC_X
        self.tau_swap = chip.swap_duration
        self.tau_mix = chip.mix_duration
        self.min_ps = chip.min_ps_duration
        self.hops = chip.swap_hops
        self.closer = chip.swap_next_gates
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
        # for the bound: (goal bit, states)
        self.wait_rows = tuple((bit, s1, s2)
                               for _, bit, s1, s2, _, _, _ in self.goal_rows)
        # per goal state: (s, state bit, mix bit, stage-1 goal bits); and
        # for the bound, (goal bits, state bit, mix bit, stage-2 goal bits)
        stage1 = (1 << (len(self.instance.goals) + 1)) - 2
        self.state_rows, self.chain_rows = [], []
        for s in self.goal_states:
            gs = sum(1 << g for g in self.instance.state_goals[s])
            self.state_rows.append((s, 1 << s, mix_bit[s], gs & stage1))
            self.chain_rows.append((gs, 1 << s, mix_bit[s], gs & ~stage1))
        self.qubit_bits = tuple((q, 1 << q) for q in chip.qubits)

        def zone(e):
            return sum(1 << q for q in chip.crosstalk_zones[e.u][e.v]) \
                if self.crosstalk else 0
        # the ps gate on the edge between two qubits: (pair, ps duration,
        # qubit mask, zone mask), or None; indexed [qubit][qubit]
        self.ps_at = [[None] * (chip.qubit_count + 1)
                      for _ in range(chip.qubit_count + 1)]
        for e in chip.edges:
            row = (e.pair, e.ps_duration, (1 << e.u) | (1 << e.v),
                   zone(e))
            self.ps_at[e.u][e.v] = self.ps_at[e.v][e.u] = row
        # per swap gate: (pair, qubit mask, zone mask, gate bit)
        self.swap_gates = tuple(
            (e.pair, (1 << e.u) | (1 << e.v), zone(e), 1 << i)
            for i, e in enumerate(chip.swap_edges))
        self.budget_s = budget_s
        self.node_budget = node_budget
        self.on_incumbent = on_incumbent
        self.warm: Schedule | None = None
        self.best_obj = (model.horizon, float("inf"))
        self.incumbents: list[Incumbent] = []
        self.nodes = 0
        self.t0 = time.monotonic()

    def run(self) -> SearchResult:
        # a warm start fits the horizon, so only a cold search stops here
        if propagate(self.model) == CONFLICT:
            return SearchResult(INFEASIBLE, None)
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
        found = self.incumbents
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
        if self.budget_s is not None and self.nodes % 256 == 0:
            if time.monotonic() - self.t0 >= self.budget_s:
                raise _OutOfBudget

    # -- core DFS ---------------------------------------------------------
    def _search(self, t, mapping, loc, running, pending, mixed, swaps,
                committed):
        """Visit one node, as a child that commits nothing: ``mapping`` is a
        tuple and ``loc`` a list, and ``running`` may hold tasks ending at
        ``t``."""
        started = 0
        for r in running:
            started |= r.pbit
        self._branch(list(mapping), loc, tuple(mapping), running, pending,
                     pending & ~started, mixed, swaps, committed, (((), t),))

    def _branch(self, mapping, loc, mapping_key, running, pending, waiting,
                mixed, swaps, committed, children):
        """Visit each child ``(chosen, t)`` of a node: commit ``chosen`` on
        top of the node's state and move to time ``t``.

        ``mapping`` and ``loc`` are lists, changed in place by the child's
        swaps and restored after it; ``mapping_key`` is ``mapping`` as a
        tuple, for memo keys. ``running`` holds the node's running tasks and
        ``waiting`` the pending goals whose ps gate has not started;
        ``committed`` gains a surviving child's tasks until it is done.
        """
        hops, wait_rows, chain_rows = self.hops, self.wait_rows, \
            self.chain_rows
        tau_swap, tau_mix, min_ps = self.tau_swap, self.tau_mix, self.min_ps
        left, memo = self._left, self.memo
        # the budget check can raise only at the node cap or on a clock
        cap = _IDLE if self.node_budget is None else self.node_budget
        timed = self.budget_s is not None
        depth = len(committed)
        for chosen, t in children:
            if t == _IDLE:
                continue         # idle forever: dead end
            n, bits = swaps, 0
            for r in chosen:     # a swap is applied when it is committed
                if r.kind == "swap":
                    u, v = r.qubits
                    a, b = mapping[u - 1], mapping[v - 1]
                    mapping[u - 1], mapping[v - 1] = b, a
                    loc[a], loc[b] = v, u
                    n += 1
                else:
                    bits |= r.pbit
            try:
                nodes = self.nodes = self.nodes + 1
                if nodes >= cap or timed:
                    self._check_budget()

                # Prune when a term of the time left to the last goal gate
                # exceeds the limit: the room to the bound's makespan, less 1
                # when the swaps plus the rounds cannot beat the bound's.
                # The rounds need no retiring: a ps gate that ends at t has
                # started, so the waiting goals lose only the chosen ones.
                best_makespan, best_swaps = self.best_obj
                wait = waiting & ~bits
                rounds = 0       # the most swap rounds a waiting goal needs
                if wait:
                    for bit, s1, s2 in wait_rows:
                        if wait & bit:
                            h = hops[loc[s1]][loc[s2]]
                            if h > rounds:
                                rounds = h
                limit = best_makespan - t   # at a leaf: (t, n) >= best_obj
                if n + rounds >= best_swaps:
                    limit -= 1
                term = rounds * tau_swap + min_ps
                if wait and term > limit:
                    continue

                still = []
                first = _IDLE    # the earliest end of what keeps running
                undo = 0         # gates whose swap ends at t: none starts
                started = 0      # pbits of what keeps running
                last = t         # the latest end of a running ps gate
                pend, mix = pending, mixed
                for r in running + chosen:   # t is the end of one or more
                    end = r.end
                    if end > t:
                        still.append(r)
                        started |= r.pbit
                        if end < first:
                            first = end
                        if end > last and r.kind == "ps":
                            last = end
                    elif r.kind == "ps":
                        pend &= ~r.pbit
                    elif r.kind == "mix":
                        mix |= 1 << r.payload
                    else:
                        undo |= r.payload
                if last - t > limit:
                    continue
                # a state's waiting ps gates run one after another, after its
                # running ps gate and, before stage 2, its mix
                if wait:
                    for goals, sbit, mbit, later in chain_rows:
                        chain = wait & goals
                        if not chain:
                            continue
                        term = chain.bit_count() * min_ps
                        if started & goals:
                            term += left(still, goals, t)
                        if chain & later and not mix & sbit:
                            term += left(still, mbit, t) \
                                if started & mbit else tau_mix
                        if term > limit:
                            break
                    if term > limit:
                        continue

                if not pend:
                    self._complete(t, n, (*committed, *chosen))
                    continue
                child_key = mapping_key if n == swaps else tuple(mapping)
                still = tuple(still)
                key = (child_key, tuple(sorted([(r.sig, r.end - t)
                                                for r in still])), pend, mix)
                entries = memo.get(key)
                if entries is None:
                    memo[key] = [(t, n)]
                elif any(t0 <= t and s0 <= n for t0, s0 in entries):
                    continue
                else:
                    entries.append((t, n))
                candidates, lazy = self._candidates(t, loc, still, pend, mix,
                                                    undo)
                committed.extend(chosen)
                self._branch(mapping, loc, child_key, still, pend, wait, mix,
                             n, committed,
                             self._subsets(candidates, lazy, first))
                del committed[depth:]
            finally:
                if n != swaps:   # swaps sit on disjoint qubits: redo = undo
                    for r in chosen:
                        if r.kind == "swap":
                            u, v = r.qubits
                            a, b = mapping[u - 1], mapping[v - 1]
                            mapping[u - 1], mapping[v - 1] = b, a
                            loc[a], loc[b] = v, u

    @staticmethod
    def _left(running, bits, t):
        """Time left on the running task whose pbit is in ``bits``."""
        for r in running:
            if r.pbit & bits:
                return r.end - t

    @staticmethod
    def _subsets(candidates, lazy, first):
        """Every pairwise-compatible subset of the candidates, depth first,
        each yielded once with the earliest end of the subset and ``first``.
        A candidate fits when it misses the OR of the subset's qubit, payload
        and zone bits. One before index ``lazy`` is taken before it is left
        out: the subset takes it and stacks the state without it. One from
        ``lazy`` on (a deferred swap) is left out before it is taken: the
        state with it is stacked. So the first subset holds every ps gate,
        mix and useful swap it can and no deferred swap. The explicit stack
        keeps one Python frame per event time."""
        end = len(candidates)
        stack = [(0, (), 0, 0, 0, first)]
        while stack:
            idx, chosen, qs, ps, zs, first = stack.pop()
            while idx < end:
                task = candidates[idx]
                idx += 1
                qm, pm, zm = task.qmask, task.pbit, task.zmask
                if qm & qs or pm & ps or zm & qs or qm & zs:
                    continue
                if idx > lazy:
                    stack.append((idx, chosen + (task,), qs | qm, ps | pm,
                                  zs | zm,
                                  task.end if task.end < first else first))
                    continue
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
        # the last ps gate ended at t; (t, swaps) passed _branch's bound
        self.best_obj = (t, swaps)
        self.incumbents.append(Incumbent(
            time.monotonic() - self.t0, t, swaps, "cp", self.nodes,
            partial(_leaf_schedule, self.model, committed,
                    self._root_mapping)))
        if self.on_incumbent:
            self.on_incumbent(self.incumbents[-1])

    # -- candidate generation --------------------------------------------
    def _candidates(self, t, loc, running, pending, mixed, undo):
        """Gates that fit at ``t`` and the index of the first deferred swap.
        In order: ps gates, mixes, the useful swaps (on no gate of undo),
        then the deferred ones. A swap is useful when it moves a state of a
        waiting goal (pending, its ps gate not started) one hop closer to
        the goal's other state, as ``chip.swap_next_gates`` lists them, and
        deferred otherwise. A ps gate ends by the bound's makespan; a swap or
        mix ends ``min_ps`` earlier, as goal gates of improving schedules all
        start by then."""
        busy = blocked = started = 0
        for r in running:
            busy |= r.qmask
            blocked |= r.zmask
            started |= r.pbit
        ps_deadline = self.best_obj[0]
        deadline = ps_deadline - self.min_ps   # for swaps and mixes
        two_stage, ps_at, closer = self.two_stage, self.ps_at, self.closer
        useful = 0       # gate bits of the useful swaps
        out = []
        for g, bit, s1, s2, later, sbits, mbits in self.goal_rows:
            if not pending & bit:
                continue
            a, b = loc[s1], loc[s2]
            if not started & bit:
                useful |= closer[b][a] | closer[a][b]
            if two_stage:
                if later:
                    if mixed & sbits != sbits:
                        continue
                elif mixed & sbits or started & mbits:
                    continue
            edge = ps_at[a][b]
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
            for s, sbit, mbit, first in self.state_rows:
                if held & sbit or started & mbit or pending & first:
                    continue
                for q, qm in self.qubit_bits:
                    if free & qm:
                        out.append(_Rec("mix", (q,), t, end, s, qm, 0, mbit))
        end = t + self.tau_swap
        if end > deadline:
            return out, len(out)
        deferred = []
        for pair, qm, zm, gbit in self.swap_gates:
            if not (gbit & undo or (qm | zm) & busy or qm & blocked):
                (out if gbit & useful else deferred).append(
                    _Rec("swap", pair, t, end, gbit, qm, zm, 0))
        lazy = len(out)
        out += deferred
        return out, lazy
