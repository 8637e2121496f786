"""Property tests: the indexed router timeline and R2 against plain references.

The references below are the straightforward algorithms the indexed code
replaced: a timeline that rescans every committed task on every probe, and
an R2 check that compares every pair of busy tasks. Both must agree with the
package exactly.
"""

import random

from hypothesis import given, settings, strategies as st

from qcsched import instance as inst
from qcsched.instance import build_grid_chip, build_preset_chip, \
    generate_instance
from qcsched.router import _Timeline, solve_greedy
from qcsched.schedule import (TWO_QUBIT_KINDS, GateTask, Schedule, Violation,
                              init_task, mix_task, ps_task, swap_task,
                              validate)

CHIPS = {"rigetti-21": build_preset_chip("rigetti-21"),
         "grid:3": build_grid_chip(3)}


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
            if task.kind in TWO_QUBIT_KINDS \
                    and self.chip.crosstalk_zone(*task.location) & qubits:
                return True
        return False

    def earliest(self, qubits, duration, not_before, two_qubit_loc=None):
        t = max([not_before] + [self.ready[q] for q in qubits])
        zone = self.chip.crosstalk_zone(*two_qubit_loc) \
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


def pairwise_r2(tasks, chip):
    """R2 violations from comparing every pair of busy tasks."""
    busy = [i for i, t in enumerate(tasks) if t.duration > 0]
    zones = {i: chip.crosstalk_zone(*tasks[i].location) for i in busy
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
def test_indexed_timeline_matches_linear_scan(chip_name, variant, ops):
    chip = CHIPS[chip_name]
    instance = generate_instance(chip, 1, stages=1, variant=variant, seed=0)
    fast, slow = _Timeline(instance), LinearTimeline(instance)
    for kind, pick, not_before, slack in ops:
        if kind == "init":
            task = init_task(chip.qubits[pick % chip.qubit_count], 1)
        elif kind == "mix":
            q = chip.qubits[pick % chip.qubit_count]
            start = fast.earliest({q}, chip.mix_duration, not_before)
            assert start == slow.earliest({q}, chip.mix_duration, not_before)
            task = mix_task(q, start + slack, chip.mix_duration, 1)
        else:
            edge = chip.edges[pick % len(chip.edges)]
            duration = chip.swap_duration if kind == "swap" \
                else edge.ps_duration
            loc = (edge.u, edge.v)
            start = fast.earliest(set(loc), duration, not_before, loc)
            assert start == slow.earliest(set(loc), duration, not_before, loc)
            task = swap_task(*loc, start + slack, duration) if kind == "swap" \
                else ps_task(*loc, start + slack, duration, 1)
        fast.commit(task)
        slow.commit(task)
        assert fast.ready == slow.ready


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
    chip = CHIPS[chip_name]
    instance = generate_instance(chip, goals, stages=stages,
                                 variant=inst.QCC_X, seed=seed)
    greedy = solve_greedy(instance, seed=seed)
    tasks = tuple(_perturb(greedy.tasks, chip, random.Random(seed), moves))
    schedule = Schedule(tasks, greedy.makespan, greedy.swap_count)
    got = validate(instance, schedule).violations
    head = [v for v in got if v.rule in ("R5", "R1")]
    tail = [v for v in got if v.rule not in ("R5", "R1", "R2")]
    assert got == tuple(head + pairwise_r2(tasks, chip) + tail)
