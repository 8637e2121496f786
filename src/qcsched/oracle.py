"""Exhaustive search for provably optimal makespans on small instances.

Iterative deepening over the makespan: for each candidate bound, a depth-first
enumeration over event times tries every compatible set of gate starts. This
is deliberately independent of the CP-style solver: no swap dominance rule,
no incumbent reasoning. Intended for desk-size chips only.

One memo serves the whole call. It keeps, per state, the most room (bound
minus time) the state has failed in, and a state is not searched again with
no more room. That holds across bounds and placements: bounds are tried in
ascending order, so a later visit with no more room is no earlier, and a
completion shifted earlier ends no later and still passes the final mixing
check against the horizon.
"""

from __future__ import annotations

from itertools import permutations

from . import instance as inst
from .instance import Instance
from .router import require_routable


class _Task:
    __slots__ = ("kind", "qubits", "end", "payload")

    def __init__(self, kind, qubits, end, payload):
        self.kind = kind          # "swap" | "ps" | "mix"
        self.qubits = qubits      # tuple of 1 or 2 qubits
        self.end = end
        self.payload = payload    # goal index for ps, state for mix

    def rel(self, t):
        return (self.kind, self.qubits, self.payload, self.end - t)


def optimal_makespan(instance: Instance, horizon: int | None = None,
                     ) -> int | None:
    """Smallest achievable makespan, or None if nothing fits the horizon.
    Raises ``RoutingError`` when the swap edges keep a goal's states apart."""
    require_routable(instance)
    if instance.goal_count == 0:
        return 0
    if horizon is None:
        horizon = instance.horizon
    searcher = _Searcher(instance, horizon)
    lower = searcher.static_lower_bound()
    for bound in range(lower, horizon + 1):
        if searcher.feasible(bound):
            return bound
    return None


class _Searcher:
    def __init__(self, instance: Instance, horizon: int):
        self.instance = instance
        self.chip = instance.chip
        self.horizon = horizon
        self.rounds = self._meeting_rounds()
        self.crosstalk = instance.variant == inst.QCC_X
        self.tau_swap = self.chip.swap_duration
        self.tau_mix = self.chip.mix_duration
        self.min_ps = self.chip.min_ps_duration
        self.all_goals = frozenset(range(1, instance.total_goals + 1))
        self.goal_states = instance.goal_states
        self.zones = self.chip.crosstalk_zones
        self.memo: dict = {}     # state key -> the most room it failed in

    def _meeting_rounds(self) -> list[list[float]]:
        """Indexed [qubit][qubit]: the fewest rounds of swaps that bring the
        states on two distinct qubits to the ends of one edge, swap-enabled
        or not, with each state moving one swap edge per round; infinite
        where no edge can join them."""
        dist = self.chip.swap_distances
        qubits = self.chip.qubits
        ends = [(e.u, e.v) for e in self.chip.edges] + \
            [(e.v, e.u) for e in self.chip.edges]
        return [[]] + [[float("inf")] + [
            min(max(dist[u][a], dist[v][b]) for a, b in ends)
            for v in qubits] for u in qubits]

    # -- initial mappings -------------------------------------------------
    def initial_mappings(self):
        """Mappings as tuples indexed by qubit-1. Free placement only permutes
        goal states; the rest are interchangeable and filled canonically."""
        alpha = self.chip.qubit_count
        if self.instance.variant != inst.QCC_I:
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

    def static_lower_bound(self) -> int:
        mapping = None if self.instance.variant == inst.QCC_I \
            else tuple(range(1, self.chip.qubit_count + 1))
        lb = self._remaining_lower_bound(0, mapping, (), self.all_goals,
                                         frozenset())
        return min(self.horizon, max(lb, self.min_ps))

    # -- feasibility at a fixed makespan bound ----------------------------
    def feasible(self, bound: int) -> bool:
        return any(self._search(0, mapping, (), self.all_goals, frozenset(),
                                bound)
                   for mapping in self.initial_mappings())

    def _search(self, t, mapping, running, pending, mixed, bound) -> bool:
        # harvest finished tasks
        while True:
            done = [task for task in running if task.end <= t]
            if not done:
                break
            running = tuple(task for task in running if task.end > t)
            for task in done:
                if task.kind == "swap":
                    u, v = task.qubits
                    m = list(mapping)
                    m[u - 1], m[v - 1] = m[v - 1], m[u - 1]
                    mapping = tuple(m)
                elif task.kind == "ps":
                    pending = pending - {task.payload}
                elif task.kind == "mix":
                    mixed = mixed | {task.payload}

        if not pending:
            return self._mixes_can_finish(t, running, mixed)

        if t + self._remaining_lower_bound(t, mapping, running, pending,
                                           mixed) > bound:
            return False

        key = (mapping, tuple(sorted(task.rel(t) for task in running)),
               pending, mixed)
        room = bound - t
        if self.memo.get(key, -1) >= room:
            return False
        self.memo[key] = room

        candidates = self._candidates(t, mapping, running, pending, mixed, bound)
        return self._choose(t, mapping, running, pending, mixed, bound,
                            candidates, 0, [])

    def _choose(self, t, mapping, running, pending, mixed, bound,
                candidates, idx, chosen) -> bool:
        if idx == len(candidates):
            active = running + tuple(chosen)
            if not active:
                return False  # idle forever: dead end
            next_t = min(task.end for task in active)
            return self._search(next_t, mapping, active, pending, mixed, bound)
        task = candidates[idx]
        if self._compatible(task, chosen):
            chosen.append(task)
            if self._choose(t, mapping, running, pending, mixed, bound,
                            candidates, idx + 1, chosen):
                return True
            chosen.pop()
        return self._choose(t, mapping, running, pending, mixed, bound,
                            candidates, idx + 1, chosen)

    # -- helpers ----------------------------------------------------------
    def _zone(self, qubits) -> frozenset[int]:
        """The crosstalk zone of a two-qubit gate; none for a mix."""
        if len(qubits) == 1:
            return frozenset()
        u, v = qubits
        return self.zones[u][v]

    def _busy_and_blocked(self, running):
        busy = set()
        blocked = set()
        for task in running:
            busy.update(task.qubits)
            if self.crosstalk:
                blocked.update(self._zone(task.qubits))
        return busy, blocked

    def _gate_ok(self, qubits, running_busy, running_blocked, running):
        if any(q in running_busy for q in qubits):
            return False
        if self.crosstalk:
            zone = self._zone(qubits)
            if any(q in zone for task in running for q in task.qubits):
                return False
            if any(q in running_blocked for q in qubits):
                return False
        return True

    def _compatible(self, task, chosen) -> bool:
        for other in chosen:
            if set(task.qubits) & set(other.qubits):
                return False
            if self.crosstalk:
                if set(other.qubits) & self._zone(task.qubits):
                    return False
                if set(task.qubits) & self._zone(other.qubits):
                    return False
        return True

    def _mix_started(self, state, running, mixed) -> bool:
        if state in mixed:
            return True
        return any(task.kind == "mix" and task.payload == state
                   for task in running)

    def _candidates(self, t, mapping, running, pending, mixed, bound):
        instance = self.instance
        chip = self.chip
        busy, blocked = self._busy_and_blocked(running)
        out = []
        running_ps_states = {s for task in running if task.kind == "ps"
                             for s in instance.goal_pairs[task.payload]}
        # goal PS gates
        for g in sorted(pending):
            s1, s2 = instance.goal_pairs[g]
            if instance.stages == 2:
                if instance.goal_stage(g) == 1:
                    if self._mix_started(s1, running, mixed) or \
                            self._mix_started(s2, running, mixed):
                        continue
                else:
                    if s1 not in mixed or s2 not in mixed:
                        continue
            for e in chip.edges:
                if {mapping[e.u - 1], mapping[e.v - 1]} != {s1, s2}:
                    continue
                if t + e.ps_duration > bound:
                    continue
                if self._gate_ok(e.pair, busy, blocked, running):
                    out.append(_Task("ps", e.pair, t + e.ps_duration, g))
        # mixing gates (free choice of qubit, matching the scheduling model)
        if instance.stages == 2 and t + self.tau_mix <= bound:
            for s in range(1, instance.state_count + 1):
                if self._mix_started(s, running, mixed):
                    continue
                if s in running_ps_states:
                    continue
                if any(g in pending and instance.goal_stage(g) == 1
                       for g in instance.state_goals[s]):
                    continue
                for q in chip.qubits:
                    if self._gate_ok((q,), busy, blocked, running):
                        out.append(_Task("mix", (q,), t + self.tau_mix, s))
        # swaps
        if t + self.tau_swap <= bound:
            for e in chip.swap_edges:
                if self._gate_ok(e.pair, busy, blocked, running):
                    out.append(_Task("swap", e.pair, t + self.tau_swap, None))
        return out

    def _remaining_lower_bound(self, t, mapping, running, pending,
                               mixed) -> int:
        """Admissible estimate of time still needed past ``t``.

        ``mapping`` may be None (free placement at the root) to skip the
        routing terms. Two arguments: per goal, routing plus the gate itself;
        per state, every PS touching the same state occupies wherever that
        state lives, so those gates -- and the state's mixing window -- form a
        sequential chain.
        """
        instance = self.instance
        running_ps = {task.payload: task.end for task in running
                      if task.kind == "ps"}
        running_mix = {task.payload: task.end for task in running
                       if task.kind == "mix"}
        lb = 0
        if mapping is not None:
            # optimistic mapping: every running swap completes instantly
            m = list(mapping)
            for task in running:
                if task.kind == "swap":
                    u, v = task.qubits
                    m[u - 1], m[v - 1] = m[v - 1], m[u - 1]
            loc = {s: q + 1 for q, s in enumerate(m)}
            for g in pending:
                if g in running_ps:
                    continue  # in flight; ends by task.end <= bound
                s1, s2 = instance.goal_pairs[g]
                # infinite for a free placement that no edge can join
                goal_lb = self.rounds[loc[s1]][loc[s2]] * self.tau_swap
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
            for g in instance.state_goals[s]:
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
            chain = base + (n1 + n2) * self.min_ps + mix_term
            lb = max(lb, chain)
        return lb

    def _mixes_can_finish(self, t, running, mixed) -> bool:
        if self.instance.stages == 1:
            return True
        horizon = max(self.instance.horizon, self.horizon)
        unmixed = set(range(1, self.instance.state_count + 1)) - mixed
        unmixed -= {task.payload for task in running if task.kind == "mix"}
        if not unmixed:
            return True
        # leftover mixes go in parallel once everything else has drained
        drain = max([t] + [task.end for task in running])
        return drain + self.tau_mix <= horizon
