"""Property tests: indexed and bit-mask code against plain references.

The references below are the straightforward algorithms the faster code
replaced: a timeline that rescans every committed task on every probe, R1
and R2 checks that compare busy tasks through ``GateTask`` (neighbours on a
qubit for R1, every pair for R2), and the exact search's
set-based gate fit and subset compatibility tests and its set-based lower
bounds. Each must agree with the package exactly, as must a greedy restart
given an objective to beat with the same restart given none. The last tests send
schedules through their JSON form and back, and hold the greedy and searched
schedules of small grid:2 instances to the brute-force oracle's optimum.
"""

import json
import random
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from qcsched import instance as inst
from qcsched.cpsolver import (_IDLE, OPTIMAL, _Engine, _OutOfBudget, _Rec,
                              build_model, search)
from qcsched.instance import build_grid_chip, build_preset_chip, \
    generate_instance
from qcsched.oracle import optimal_makespan
from qcsched.router import _Timeline, all_pairs_distances, solve_greedy
from qcsched.schedule import (TWO_QUBIT_KINDS, GateTask, Schedule, Violation,
                              init_task, mix_task, ps_task, schedule_from_dict,
                              schedule_to_dict, swap_task, validate)

CHIPS = {"rigetti-21": build_preset_chip("rigetti-21"),
         "grid:3": build_grid_chip(3)}
SEARCH_CHIPS = {**CHIPS, "rigetti-8": build_preset_chip("rigetti-8")}


class LinearTimeline:
    """Every committed task, rescanned on every probe."""

    def __init__(self, instance):
        self.chip = instance.chip
        self.crosstalk = instance.variant == inst.QCC_X
        self.ready = {q: 0 for q in self.chip.qubits}
        self.tasks = []

    def _conflicts(self, qubits, zone, start, end, task):
        if task.start >= end or start >= task.end:
            return False
        tq = set(task.qubits)
        if qubits & tq:
            return True
        if self.crosstalk:
            if zone & tq:
                return True
            if task.kind in TWO_QUBIT_KINDS and self.chip.crosstalk_zones[
                    task.location[0]][task.location[1]] & qubits:
                return True
        return False

    def earliest(self, qubits, duration, not_before, two_qubit_loc=None):
        t = max([not_before] + [self.ready[q] for q in qubits])
        zone = self.chip.crosstalk_zones[two_qubit_loc[0]][two_qubit_loc[1]] \
            if (self.crosstalk and two_qubit_loc) else frozenset()
        while True:
            clash = [task for task in self.tasks
                     if self._conflicts(qubits, zone, t, t + duration, task)]
            if not clash:
                return t
            t = max(task.end for task in clash)

    def commit(self, task):
        self.tasks.append(task)
        for q in task.qubits:
            self.ready[q] = max(self.ready[q], task.end)


def pairwise_r1(tasks, chip):
    """R1 violations from comparing neighbouring busy tasks on each qubit,
    in start order, with ``GateTask.overlaps``."""
    out = []
    for q in chip.qubits:
        busy = sorted((i for i, t in enumerate(tasks)
                       if t.duration > 0 and q in t.qubits),
                      key=lambda i: tasks[i].start)
        for a, b in zip(busy, busy[1:]):
            if tasks[a].overlaps(tasks[b]):
                out.append(Violation(
                    "R1", f"tasks {a} and {b} overlap on qubit {q}", (a, b)))
    return out


def pairwise_r2(tasks, chip):
    """R2 violations from comparing every pair of busy tasks."""
    busy = [i for i, t in enumerate(tasks) if t.duration > 0]
    zones = {i: chip.crosstalk_zones[tasks[i].location[0]]
             [tasks[i].location[1]] for i in busy
             if tasks[i].kind in TWO_QUBIT_KINDS
             and isinstance(tasks[i].location, tuple)
             and chip.edge_between(*tasks[i].location)}
    out = []
    for a in range(len(busy)):
        for b in range(a + 1, len(busy)):
            i, j = busy[a], busy[b]
            if not tasks[i].overlaps(tasks[j]):
                continue
            if (i in zones and zones[i] & set(tasks[j].qubits)) or (
                    j in zones and zones[j] & set(tasks[i].qubits)):
                out.append(Violation(
                    "R2", f"tasks {i} and {j} violate the adjacent-qubit "
                          f"exclusion", (i, j)))
    return out


# one timeline operation: (kind, edge or qubit pick, not_before, slack)
OPS = st.lists(st.tuples(st.sampled_from(["swap", "ps", "mix", "init"]),
                         st.integers(0, 10 ** 6), st.integers(0, 30),
                         st.integers(0, 3)),
               max_size=60)


@settings(max_examples=150, deadline=None)
@given(chip_name=st.sampled_from(sorted(CHIPS)),
       variant=st.sampled_from([inst.QCC, inst.QCC_X]), ops=OPS)
# an init on qubit 2 after a swap on (1, 2), then a swap on (3, 6), whose
# zone holds qubit 2: a zero-length interval on qubit 2's list would hide
# the swap from the bisection
@example(chip_name="grid:3", variant=inst.QCC_X,
         ops=[("swap", 0, 0, 0), ("init", 1, 0, 0), ("swap", 4, 0, 0)])
def test_indexed_timeline_matches_linear_scan(chip_name, variant, ops):
    chip = CHIPS[chip_name]
    instance = generate_instance(chip, 1, stages=1, variant=variant, seed=0)
    fast, slow = _Timeline(instance), LinearTimeline(instance)
    for kind, pick, not_before, slack in ops:
        if kind == "init":
            task = init_task(chip.qubits[pick % chip.qubit_count], 1)
        elif kind == "mix":
            q = chip.qubits[pick % chip.qubit_count]
            start = fast.earliest((q,), chip.mix_duration, not_before)
            assert start == slow.earliest({q}, chip.mix_duration, not_before)
            task = mix_task(q, start + slack, chip.mix_duration, 1)
        else:
            edge = chip.edges[pick % len(chip.edges)]
            duration = chip.swap_duration if kind == "swap" \
                else edge.ps_duration
            loc = (edge.u, edge.v)
            start = fast.earliest(loc, duration, not_before)
            assert start == slow.earliest(set(loc), duration, not_before, loc)
            task = swap_task(*loc, start + slack, duration) if kind == "swap" \
                else ps_task(*loc, start + slack, duration, 1)
        fast.commit(task.qubits, task.start, task.end)
        slow.commit(task)
        assert dict(zip(chip.qubits, fast.ready[1:])) == slow.ready


def _perturb(tasks, chip, rng, moves):
    tasks = list(tasks)
    for _ in range(moves):
        i = rng.randrange(len(tasks))
        t = tasks[i]
        what = rng.randrange(4)
        if what == 0:
            t = GateTask(t.kind, t.location, t.start + rng.randint(-4, 4),
                         t.duration, t.goal_index, t.state)
        elif what == 1:     # long tasks reach past later ones on a qubit
            t = GateTask(t.kind, t.location, t.start,
                         t.duration + rng.choice([-1, 1, 6, 12]),
                         t.goal_index, t.state)
        elif what == 2 and isinstance(t.location, tuple):
            e = rng.choice(chip.edges)
            t = GateTask(t.kind, (e.u, e.v), t.start, t.duration,
                         t.goal_index, t.state)
        else:
            tasks.append(GateTask(t.kind, t.location,
                                  t.start + rng.randint(0, 3), t.duration,
                                  t.goal_index, t.state))
        tasks[i] = t
    rng.shuffle(tasks)
    return tasks


@settings(max_examples=300, deadline=None)
@given(chip_name=st.sampled_from(sorted(CHIPS)), goals=st.integers(1, 8),
       stages=st.sampled_from([1, 2]), seed=st.integers(0, 10 ** 6),
       moves=st.integers(0, 20))
def test_r2_matches_pairwise_reference(chip_name, goals, stages, seed, moves):
    """R1 and R2 of a perturbed schedule, exactly as the references give
    them; R5 and the later rules keep their places around them."""
    chip = CHIPS[chip_name]
    instance = generate_instance(chip, goals, stages=stages,
                                 variant=inst.QCC_X, seed=seed)
    greedy = solve_greedy(instance, seed=seed)
    tasks = tuple(_perturb(greedy.tasks, chip, random.Random(seed), moves))
    schedule = Schedule(tasks, greedy.makespan, greedy.swap_count)
    got = validate(instance, schedule).violations
    head = [v for v in got if v.rule == "R5"]
    tail = [v for v in got if v.rule not in ("R5", "R1", "R2")]
    assert got == tuple(head + pairwise_r1(tasks, chip)
                        + pairwise_r2(tasks, chip) + tail)


@settings(max_examples=150, deadline=None)
@given(chip_name=st.sampled_from(sorted(SEARCH_CHIPS)), goals=st.integers(0, 8),
       stages=st.sampled_from([1, 2]), variant=st.sampled_from(inst.VARIANTS),
       seed=st.integers(0, 10 ** 6), makespan_shift=st.integers(-2, 2),
       swaps_shift=st.integers(-2, 2))
def test_greedy_beats_a_bound_or_builds_nothing(chip_name, goals, stages,
                                                variant, seed,
                                                makespan_shift, swaps_shift):
    instance = generate_instance(SEARCH_CHIPS[chip_name], goals,
                                 stages=stages, variant=variant, seed=seed)
    full = solve_greedy(instance, seed=seed)
    beat = (full.makespan + makespan_shift, full.swap_count + swaps_shift)
    got = solve_greedy(instance, seed=seed, beat=beat)
    if full.objective() >= beat:
        assert got is None
    else:
        assert got == full


class SetPredicates:
    """The exact search's gate fit and subset tests on qubit sets."""

    def __init__(self, engine):
        self.engine = engine
        self.crosstalk = engine.crosstalk
        self.zones = {e.pair: engine.chip.crosstalk_zones[e.u][e.v]
                      for e in engine.chip.edges}

    def busy_and_blocked(self, running):
        busy = set()
        blocked = set()
        for r in running:
            busy.update(r.qubits)
            if self.crosstalk and len(r.qubits) == 2:
                blocked.update(self.zones[r.qubits])
        return busy, blocked

    def gate_ok(self, qubits, busy, blocked, running):
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

    def compatible(self, task, chosen):
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

    def subsets(self, candidates):
        stack = [(0, ())]
        while stack:
            idx, chosen = stack.pop()
            if idx == len(candidates):
                yield chosen
                continue
            task = candidates[idx]
            stack.append((idx + 1, chosen))
            if self.compatible(task, chosen):
                stack.append((idx + 1, chosen + (task,)))

    def candidates(self, t, mapping, running, pending, mixed, ending):
        """(kind, qubits, start, end, payload) of every gate that fits, in
        the search's order; a swap's payload is its gate bit, and no swap
        starts on a gate of ``ending``, whose swap ends at ``t``."""
        e = self.engine
        instance, chip = e.instance, e.chip
        ps_deadline = e.best_obj[0]     # the incumbent's, or the horizon
        deadline = ps_deadline - e.min_ps
        busy, blocked = self.busy_and_blocked(running)
        started = mixed | {r.payload for r in running if r.kind == "mix"}
        running_ps_states = {s for r in running if r.kind == "ps"
                             for s in instance.goal_pair(r.payload)}
        out = []
        for g in sorted(pending):
            s1, s2 = instance.goal_pair(g)
            if instance.stages == 2:
                if instance.goal_stage(g) == 1:
                    if s1 in started or s2 in started:
                        continue
                elif s1 not in mixed or s2 not in mixed:
                    continue
            for edge in chip.edges:
                if {mapping[edge.u - 1], mapping[edge.v - 1]} == {s1, s2} \
                        and t + edge.ps_duration <= ps_deadline \
                        and self.gate_ok(edge.pair, busy, blocked, running):
                    out.append(("ps", edge.pair, t, t + edge.ps_duration, g))
        if instance.stages == 2 and t + e.tau_mix <= deadline:
            for s in instance.goal_states:
                if s in started or s in running_ps_states or any(
                        g in pending and instance.goal_stage(g) == 1
                        for g in instance.state_goals[s]):
                    continue
                out.extend(("mix", (q,), t, t + e.tau_mix, s)
                           for q in chip.qubits
                           if self.gate_ok((q,), busy, blocked, running))
        if t + e.tau_swap <= deadline:
            for i, edge in enumerate(chip.swap_edges):
                if edge.pair not in ending and \
                        self.gate_ok(edge.pair, busy, blocked, running):
                    out.append(("swap", edge.pair, t, t + e.tau_swap, 1 << i))
        return out


class SetBounds:
    """The exact search's two lower bounds on sets and dicts, with the
    placement they read: goals pending and states mixed are sets, and the
    running swaps are replayed onto the mapping."""

    def __init__(self, engine):
        instance, chip = engine.instance, engine.chip
        self.hops = [[d // 2 if d != float("inf") else d for d in row]
                     for row in all_pairs_distances(chip)]
        self.goal_pairs = instance.goal_pairs
        self.state_goals = instance.state_goals
        self.goal_states = instance.goal_states
        self.stage = (0,) + tuple(instance.goal_stage(g)
                                  for g in range(1, instance.total_goals + 1))
        self.tau_swap = chip.swap_duration
        self.tau_mix = chip.mix_duration
        self.min_ps = chip.min_ps_duration

    def makespan_lower_bound(self, t, loc, running, pending, mixed):
        hops, pairs, stage = self.hops, self.goal_pairs, self.stage
        tau_swap, tau_mix, min_ps = self.tau_swap, self.tau_mix, self.min_ps
        running_ps = {}
        running_mix = {}
        for r in running:
            if r.kind == "ps":
                running_ps[r.payload] = r.end - t
            elif r.kind == "mix":
                running_mix[r.payload] = r.end - t
        lb = 0
        for g in pending:
            left = running_ps.get(g)
            if left is not None:
                if left > lb:
                    lb = left
                continue
            s1, s2 = pairs[g]
            goal_lb = hops[loc[s1]][loc[s2]] * tau_swap
            if stage[g] == 2:
                for s in (s1, s2):
                    if s not in mixed:
                        wait = running_mix.get(s, tau_mix)
                        if wait > goal_lb:
                            goal_lb = wait
            if goal_lb + min_ps > lb:
                lb = goal_lb + min_ps
        for s in self.goal_states:
            base = n = 0
            later = False
            for g in self.state_goals[s]:
                if g not in pending:
                    continue
                left = running_ps.get(g)
                if left is None:
                    n += 1
                    later = later or stage[g] == 2
                elif left > base:
                    base = left
            base += n * min_ps
            if later and s not in mixed:
                base += running_mix.get(s, tau_mix)
            if base > lb:
                lb = base
        return lb

    def swap_lower_bound(self, loc, running, pending):
        running_ps = {r.payload for r in running if r.kind == "ps"}
        hops, pairs = self.hops, self.goal_pairs
        lb = 0
        for g in pending:
            if g not in running_ps:
                s1, s2 = pairs[g]
                lb = max(lb, hops[loc[s1]][loc[s2]])
        return lb


def _placement(mapping, running):
    """Each state's qubit once the running swaps end (index = state)."""
    m = list(mapping)
    for r in running:
        if r.kind == "swap":
            u, v = r.qubits
            m[u - 1], m[v - 1] = m[v - 1], m[u - 1]
    loc = [0] * (len(m) + 1)
    for q, s in enumerate(m, 1):
        loc[s] = q
    return loc


def _bits(members):
    """The search's bitset of goals or states: bit ``i`` for member ``i``."""
    return sum(1 << i for i in members)


def _engine(chip_name, variant, stages, goals, seed):
    instance = generate_instance(SEARCH_CHIPS[chip_name], goals,
                                 stages=stages, variant=variant, seed=seed)
    return _Engine(build_model(instance), None, None, None)


def _gates(engine, rng):
    """Every gate of the chip as a search record starting at 0: a ps on each
    edge for a random goal, a mix on each qubit for a random goal state,
    and each swap. So one goal often has ps gates on several edges and one
    state mixes on several qubits."""
    chip, goals = engine.chip, engine.instance.total_goals
    out = []
    for e in chip.edges:
        pair, duration, qm, zm = engine.ps_at[e.u][e.v]
        g = rng.randint(1, goals)
        out.append(_Rec("ps", pair, 0, duration, g, qm, zm, 1 << g))
    for q in chip.qubits:
        s = rng.choice(engine.goal_states)
        out.append(_Rec("mix", (q,), 0, engine.tau_mix, s, 1 << q, 0,
                        1 << (goals + s)))
    for pair, qm, zm, gbit in engine.swap_gates:
        out.append(_Rec("swap", pair, 0, engine.tau_swap, gbit, qm, zm, 0))
    return out


SEARCH_STATES = dict(
    chip_name=st.sampled_from(sorted(SEARCH_CHIPS)),
    variant=st.sampled_from([inst.QCC, inst.QCC_X]),
    stages=st.sampled_from([1, 2]), goals=st.integers(1, 5),
    seed=st.integers(0, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(running=st.integers(0, 6), **SEARCH_STATES)
def test_mask_fit_matches_set_predicates(chip_name, variant, stages, goals,
                                         seed, running):
    engine = _engine(chip_name, variant, stages, goals, seed)
    rng = random.Random(seed)
    busy = tuple(rng.sample(_gates(engine, rng), running))
    mapping = list(engine.chip.qubits)
    rng.shuffle(mapping)
    pending = frozenset(g for g in range(1, engine.instance.total_goals + 1)
                        if rng.random() < 0.7)
    mixed = frozenset(s for s in engine.goal_states if rng.random() < 0.4)
    ending = frozenset(e.pair for e in engine.chip.swap_edges
                       if rng.random() < 0.3)
    undo = sum(gbit for pair, _, _, gbit in engine.swap_gates
               if pair in ending)
    if rng.random() < 0.5:   # an incumbent whose deadlines bind at t = 1
        engine.best_obj = (rng.randint(2, 10), 0)
    args = (1, tuple(mapping), busy, pending, mixed, ending)
    loc = _placement(mapping, ())
    got = [(r.kind, r.qubits, r.start, r.end, r.payload)
           for r in engine._candidates(1, loc, busy, _bits(pending),
                                       _bits(mixed), undo)]
    assert got == SetPredicates(engine).candidates(*args)


@settings(max_examples=300, deadline=None)
@given(picks=st.lists(st.integers(0, 10 ** 6), max_size=9), **SEARCH_STATES)
def test_mask_subsets_match_set_predicates(chip_name, variant, stages, goals,
                                           seed, picks):
    engine = _engine(chip_name, variant, stages, goals, seed)
    gates = _gates(engine, random.Random(seed))
    candidates = [gates[p % len(gates)] for p in picks]
    assert [chosen for chosen, _ in engine._subsets(candidates, _IDLE)] == \
        list(SetPredicates(engine).subsets(candidates))


@settings(max_examples=100, deadline=None)
@given(picks=st.lists(st.integers(0, 10 ** 6), max_size=9),
       first=st.integers(1, 30), **SEARCH_STATES)
def test_subsets_carry_their_earliest_end(chip_name, variant, stages, goals,
                                          seed, picks, first):
    engine = _engine(chip_name, variant, stages, goals, seed)
    gates = _gates(engine, random.Random(seed))
    candidates = [gates[p % len(gates)] for p in picks]
    for chosen, end in engine._subsets(candidates, first):
        assert end == min([first] + [r.end for r in chosen])


def _search_state(engine, rng):
    """A state the search can reach: time ``t``, a shuffled mapping, goals
    pending, states mixed, and ps, mix and swap records running on disjoint
    qubits, some of them ending at ``t``. A running ps holds its goal's
    states and its goal is pending; a running mix is of a state neither
    mixed nor in a running ps."""
    instance, chip = engine.instance, engine.chip
    t = rng.randint(0, 12)
    pending = {g for g in range(1, instance.total_goals + 1)
               if rng.random() < 0.7}
    mixed = {s for s in instance.goal_states if rng.random() < 0.4}
    free = set(chip.qubits)
    placed = {}     # qubit -> state, for the running ps gates
    running = []
    for g in sorted(pending):
        s1, s2 = instance.goal_pair(g)
        edges = [e for e in chip.edges if e.u in free and e.v in free]
        if rng.random() < 0.5 or not edges or {s1, s2} & set(placed.values()):
            continue
        e = rng.choice(edges)
        pair, duration, qm, zm = engine.ps_at[e.u][e.v]
        end = t + rng.randint(0, duration)
        running.append(_Rec("ps", pair, end - duration, end, g, qm, zm,
                            1 << g))
        placed[e.u], placed[e.v] = (s1, s2) if rng.random() < 0.5 \
            else (s2, s1)
        free -= {e.u, e.v}
    held = set(placed.values())
    for s in instance.goal_states:
        if s in mixed or s in held or not free or rng.random() < 0.5:
            continue
        q = rng.choice(sorted(free))
        free.discard(q)
        end = t + rng.randint(0, engine.tau_mix)
        running.append(_Rec("mix", (q,), end - engine.tau_mix, end, s, 1 << q,
                            0, 1 << (instance.total_goals + s)))
    for pair, qm, zm, gbit in engine.swap_gates:
        if set(pair) <= free and rng.random() < 0.3:
            free -= set(pair)
            end = t + rng.randint(0, engine.tau_swap)
            running.append(_Rec("swap", pair, end - engine.tau_swap, end,
                                gbit, qm, zm, 0))
    rest = [s for s in chip.qubits if s not in held]
    rng.shuffle(rest)
    mapping = [placed[q] if q in placed else rest.pop() for q in chip.qubits]
    rng.shuffle(running)
    return t, mapping, tuple(running), pending, mixed


def _prunes(engine, t, loc, running, pending, mixed, swaps):
    """Whether the search's node at this state stops at its bound. A node
    that passes records its memo key, or with no goal pending an incumbent;
    the node budget then stops the search at the node's first child."""
    mapping = [0] * engine.chip.qubit_count     # with the running swaps
    for s in range(1, len(loc)):
        mapping[loc[s] - 1] = s
    engine.memo, engine.incumbents = {}, []
    engine._root_mapping = tuple(mapping)
    engine.node_budget = engine.nodes + 2
    try:
        engine._search(t, tuple(mapping), loc, running, _bits(pending),
                       _bits(mixed), swaps, [])
    except _OutOfBudget:
        pass
    return not (engine.memo or engine.incumbents)


# The chips' mixes last 1, so a running mix always has a whole mix left; a
# 3-long mix lets the time left on a running mix differ from a fresh one.
# The bound's (makespan, swaps) sits one below, at or one above the
# reference's, so each test of the node and its swap tie-break is crossed.
# Random states rarely make a running mix's time left the deciding term
# (about 1 in 100), so the two examples pin one where it is: a 2-long rest
# of a 3-long mix gives a bound of 8, where a fresh mix would give 9 and no
# mix 6.
@settings(max_examples=300, deadline=None)
@example(chip_name="grid:3", variant=inst.QCC, stages=2, goals=2, seed=8,
         mix=3, mk_offset=0, swaps=0, most_offset=1)
@example(chip_name="grid:3", variant=inst.QCC, stages=2, goals=2, seed=8,
         mix=3, mk_offset=-1, swaps=0, most_offset=1)
@given(mix=st.sampled_from([1, 3]), mk_offset=st.sampled_from([-1, 0, 1]),
       swaps=st.integers(0, 4), most_offset=st.sampled_from([-1, 0, 1]),
       **SEARCH_STATES)
def test_bounds_match_set_reference(chip_name, variant, stages, goals, seed,
                                    mix, mk_offset, swaps, most_offset):
    chip = replace(SEARCH_CHIPS[chip_name], mix_duration=mix)
    instance = generate_instance(chip, goals, stages=stages, variant=variant,
                                 seed=seed)
    engine = _Engine(build_model(instance), None, None, None)
    t, mapping, running, pending, mixed = \
        _search_state(engine, random.Random(seed))
    loc = _placement(mapping, running)
    # the reference retires what ends at t; the swaps are already in loc
    ended = [r for r in running if r.end <= t]
    still = tuple(r for r in running if r.end > t)
    ref_pending = pending - {r.payload for r in ended if r.kind == "ps"}
    ref_mixed = mixed | {r.payload for r in ended if r.kind == "mix"}
    ref = SetBounds(engine)
    mk_lb = t + ref.makespan_lower_bound(t, loc, still, ref_pending,
                                         ref_mixed)
    swap_lb = ref.swap_lower_bound(loc, still, ref_pending)
    mk, most = mk_lb + mk_offset, swaps + swap_lb + most_offset
    engine.best_obj = (mk, most)
    assert _prunes(engine, t, loc, running, pending, mixed, swaps) == \
        (mk_lb > mk or mk_lb == mk and swaps + swap_lb >= most)


def _mapping(loc):
    """The mapping (qubit - 1 -> state) whose inverse is ``loc``."""
    mapping = [0] * (len(loc) - 1)
    for s in range(1, len(loc)):
        mapping[loc[s] - 1] = s
    return mapping


def _retire(t, running, pending, mixed):
    """A state at time ``t`` once what ends at ``t`` is retired: the tasks
    still running, and the goals pending and states mixed, as sets."""
    ended = [r for r in running if r.end <= t]
    return (tuple(r for r in running if r.end > t),
            pending - {r.payload for r in ended if r.kind == "ps"},
            mixed | {r.payload for r in ended if r.kind == "mix"})


def _records(engine, visit):
    """What one visit records with a fresh memo and no incumbent: its memo
    keys and its incumbents' (makespan, swaps, tasks). The node budget stops
    the visit at its first grandchild."""
    engine.memo, engine.incumbents = {}, []
    engine.node_budget = engine.nodes + 2
    try:
        visit()
    except _OutOfBudget:
        pass
    return (list(engine.memo),
            [(i.makespan, i.swap_count, i.build.args[0])
             for i in engine.incumbents])


# Each child (chosen, t') of a drawn node is visited twice: by the node's
# children loop, which applies the chosen swaps in place and bounds the child
# from the node's waiting goals, and as a root of its own from the state
# after the swaps. Both must record the same memo key or incumbent, or
# neither, as the set reference's bound says, and the loop must hand the
# node's mapping and placement back unchanged. The bound sits one below, at
# or one above the reference's bound of each child, so the swap tie-break
# decides some of them.
@settings(max_examples=300, deadline=None)
@given(mix=st.sampled_from([1, 3]), mk_offset=st.sampled_from([-1, 0, 1]),
       swaps=st.integers(0, 4), most_offset=st.sampled_from([-1, 0, 1]),
       **SEARCH_STATES)
def test_children_loop_bounds_each_child_as_a_root(
        chip_name, variant, stages, goals, seed, mix, mk_offset, swaps,
        most_offset):
    chip = replace(SEARCH_CHIPS[chip_name], mix_duration=mix)
    instance = generate_instance(chip, goals, stages=stages, variant=variant,
                                 seed=seed)
    engine = _Engine(build_model(instance), None, None, None)
    t, mapping, running, pending, mixed = \
        _search_state(engine, random.Random(seed))
    loc = _placement(mapping, running)
    mapping = _mapping(loc)     # with the running swaps
    engine._root_mapping = tuple(mapping)
    still, pending, mixed = _retire(t, running, pending, mixed)
    undo = sum(r.payload for r in running if r.kind == "swap" and r.end <= t)
    first = min([r.end for r in still], default=_IDLE)
    started = _bits(r.payload for r in still if r.kind == "ps")
    candidates = engine._candidates(t, loc, still, _bits(pending),
                                    _bits(mixed), undo)
    ref = SetBounds(engine)
    for chosen, next_t in engine._subsets(candidates, first):
        if next_t == _IDLE:
            continue
        moved = [r for r in chosen if r.kind == "swap"]
        child_loc = _placement(mapping, moved)
        n = swaps + len(moved)
        child_still, child_pending, child_mixed = \
            _retire(next_t, still + chosen, pending, mixed)
        mk_lb = next_t + ref.makespan_lower_bound(
            next_t, child_loc, child_still, child_pending, child_mixed)
        swap_lb = ref.swap_lower_bound(child_loc, child_still, child_pending)
        mk, most = mk_lb + mk_offset, n + swap_lb + most_offset
        node_mapping, node_loc = list(mapping), list(loc)

        engine.best_obj = (mk, most)
        branched = _records(engine, lambda: engine._branch(
            node_mapping, node_loc, tuple(mapping), still, _bits(pending),
            _bits(pending) & ~started, _bits(mixed), swaps, [],
            [(chosen, next_t)]))
        assert (node_mapping, node_loc) == (mapping, loc)

        engine.best_obj = (mk, most)
        rooted = _records(engine, lambda: engine._search(
            next_t, tuple(_mapping(child_loc)), child_loc, still + chosen,
            _bits(pending), _bits(mixed), n, list(chosen)))
        assert branched == rooted
        assert (branched == ([], [])) == \
            (mk_lb > mk or mk_lb == mk and n + swap_lb >= most)


ROUND_TRIP_CHIPS = {"grid:2": build_grid_chip(2), "grid:3": CHIPS["grid:3"],
                    "rigetti-8": SEARCH_CHIPS["rigetti-8"]}


@settings(max_examples=80, deadline=None)
@given(chip_name=st.sampled_from(sorted(ROUND_TRIP_CHIPS)),
       variant=st.sampled_from([inst.QCC, inst.QCC_I, inst.QCC_X]),
       stages=st.sampled_from([1, 2]), goals=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6), searched=st.booleans())
def test_schedule_json_round_trip(chip_name, variant, stages, goals, seed,
                                  searched):
    instance = generate_instance(ROUND_TRIP_CHIPS[chip_name], goals,
                                 stages=stages, variant=variant, seed=seed)
    schedule = solve_greedy(instance, seed=seed)
    if searched:
        schedule = search(build_model(instance), schedule,
                          node_budget=300).best
    back = schedule_from_dict(json.loads(json.dumps(
        schedule_to_dict(schedule))))
    assert back == schedule
    assert validate(instance, back).violations == \
        validate(instance, schedule).violations


# The oracle takes up to about 15 s on a two-stage, three-goal grid:2
# instance, so the draw is kept small.
@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from([inst.QCC, inst.QCC_I, inst.QCC_X]),
       stages=st.sampled_from([1, 2]), goals=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
def test_schedules_respect_the_oracle_on_grid2(variant, stages, goals, seed):
    instance = generate_instance(ROUND_TRIP_CHIPS["grid:2"], goals,
                                 stages=stages, variant=variant, seed=seed)
    best = optimal_makespan(instance)
    greedy = solve_greedy(instance, seed=seed)
    model = build_model(instance)
    runs = [search(model, node_budget=2000),
            search(model, greedy, node_budget=2000)]
    for schedule in [greedy] + [r.best for r in runs if r.best is not None]:
        assert validate(instance, schedule).valid
        assert schedule.makespan >= best
    for r in runs:
        if r.status == OPTIMAL:
            assert r.best.makespan == best
