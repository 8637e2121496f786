"""Timed gate schedules and the rule validator, with its qubit-state replay.

The validator is the project's ground truth: it shares no code with the
solvers and re-derives every property (resource exclusivity, crosstalk,
goal matching, stage separation, makespan accounting) from the raw task list.

A task is a ``GateTask``, a NamedTuple of six fields. ``Schedule.from_tasks``
is the one way the engines make a schedule: it takes task rows, plain
tuples of those fields in order, and stamps each one. ``validate`` reads
the task list into one tuple per field, and its rules index those tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple

from . import instance as inst
from .instance import (Instance, ParseError, from_json, of_type, read_json,
                       write_json)

SWAP = "swap"
PS = "ps"
MIX = "mix"
INIT = "init"
TWO_QUBIT_KINDS = (SWAP, PS)


class GateTask(NamedTuple):
    """One timed gate: a tuple of its six fields, in this order."""

    kind: str
    location: tuple[int, int] | int
    start: int
    duration: int
    goal_index: int | None = None
    state: int | None = None

    @property
    def end(self) -> int:
        return self.start + self.duration

    @property
    def qubits(self) -> tuple[int, ...]:
        if isinstance(self.location, tuple):
            return self.location
        return (self.location,)

    def overlaps(self, other: "GateTask") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Schedule:
    tasks: tuple[GateTask, ...]
    makespan: int
    swap_count: int
    instance_id: str = ""

    @classmethod
    def from_tasks(cls, tasks, instance_id: str = "") -> "Schedule":
        """The schedule of ``tasks``, rows ``(kind, location, start,
        duration, goal_index, state)`` whose edge locations are ascending
        pairs; a ``GateTask`` is one. Tasks are kept in replay order, and
        the makespan and swap count are counted from them."""
        tasks = tuple(sorted(map(GateTask._make, tasks), key=_replay_key))
        goal_ends, swaps = [], 0
        for kind, _, start, duration, goal, _ in tasks:
            if kind == SWAP:
                swaps += 1
            elif kind == PS and goal is not None:
                goal_ends.append(start + duration)
        return cls(
            tasks=tasks,
            makespan=max(goal_ends, default=0),
            swap_count=swaps,
            instance_id=instance_id,
        )

    @property
    def total_span(self) -> int:
        return max((t.end for t in self.tasks), default=0)

    def objective(self) -> tuple[int, int]:
        """Lexicographic objective: makespan first, swap count as tiebreak."""
        return (self.makespan, self.swap_count)


@dataclass(frozen=True)
class Incumbent:
    """One improving schedule, found ``t`` seconds in by ``source``
    (baseline | greedy | cp) after ``nodes`` search nodes (0 for the
    router). ``build`` makes the schedule when ``schedule`` is first read;
    it is not compared, and the file form leaves it out."""

    t: float
    makespan: int
    swap_count: int
    source: str
    nodes: int = 0
    build: Callable[[], Schedule] | None = field(default=None, compare=False,
                                                 repr=False)

    @cached_property
    def schedule(self) -> Schedule:
        return self.build()


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str
    task_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


def _replay_key(task: GateTask):
    """Chronological order: by start, inits first, then by qubits."""
    location = task.location
    return (task.start, 0 if task.kind == INIT else 1,
            location if isinstance(location, tuple) else (location,))


def _held_at_ps(instance: Instance, kinds, locations, starts, qubits,
                states) -> dict[int, tuple[int | None, ...]]:
    """The states that each ps task's qubits hold when it starts, by task
    index, from a chronological replay of the swaps.

    The replay visits swaps and ps tasks in ``_replay_key`` order, ties in
    task order; inits come first and set the qcc-i placement. Assumes
    per-qubit non-overlap; callers check that separately first.
    """
    held = {q: q for q in instance.chip.qubits}
    if instance.variant == inst.QCC_I:
        held = dict.fromkeys(held)
        for i, kind in enumerate(kinds):
            if kind == INIT and isinstance(locations[i], int) \
                    and locations[i] in held:
                held[locations[i]] = states[i]
    events = sorted((starts[i], qubits[i], i) for i, kind in enumerate(kinds)
                    if kind == SWAP or kind == PS)
    at_start: dict[int, tuple[int | None, ...]] = {}
    for _, qs, i in events:
        if kinds[i] == PS:
            at_start[i] = tuple(held.get(q) for q in qs)
        elif len(qs) == 2 and qs[0] in held and qs[1] in held:
            u, v = qs       # a swap off the chip's qubits (R5) moves nothing
            held[u], held[v] = held[v], held[u]
    return at_start


def validate(instance: Instance, schedule: Schedule,
             horizon: int | None = None) -> ValidationReport:
    """Check every rule of the instance's variant; never raises on bad input.

    Each task is read once, into one tuple per field; the rules index those.
    R9 checks that every task ends by ``horizon``, ``instance.horizon``
    unless given.
    """
    tasks = schedule.tasks
    chip = instance.chip
    violations: list[Violation] = []

    def flag(rule, detail, *ids):
        violations.append(Violation(rule, detail, tuple(ids)))

    kinds, locations, starts, durations, goals, states = \
        zip(*tasks) if tasks else ((),) * 6
    ends = [start + duration for start, duration in zip(starts, durations)]
    qubits = [loc if isinstance(loc, tuple) else (loc,) for loc in locations]

    # R5: structural legality of each task (locations, durations, payloads).
    gates = []      # two-qubit tasks on an edge of the chip
    for i, (kind, loc, start, duration, state) in enumerate(
            zip(kinds, locations, starts, durations, states)):
        if kind not in (SWAP, PS, MIX, INIT):
            flag("R5", f"task {i}: unknown kind {kind!r}", i)
            continue
        if start < 0:
            flag("R5", f"task {i}: negative start {start}", i)
        if kind in TWO_QUBIT_KINDS:
            if not isinstance(loc, tuple) or len(loc) != 2:
                flag("R5", f"task {i}: {kind} needs an edge location", i)
                continue
            edge = chip.edge_map.get(loc)
            if edge is None:
                flag("R5", f"task {i}: no edge {loc} on the chip", i)
                continue
            gates.append(i)
            if kind == SWAP:
                if not edge.swap_enabled:
                    flag("R5", f"task {i}: edge {loc} has no swap gate", i)
                if duration != chip.swap_duration:
                    flag("R5", f"task {i}: swap duration {duration} != "
                               f"{chip.swap_duration}", i)
            else:
                if duration != edge.ps_duration:
                    flag("R5", f"task {i}: ps duration {duration} != "
                               f"{edge.ps_duration} on edge {loc}", i)
        else:
            if not isinstance(loc, int) or loc not in chip.qubits:
                flag("R5", f"task {i}: {kind} needs a valid qubit location", i)
                continue
            if kind == MIX and duration != chip.mix_duration:
                flag("R5", f"task {i}: mix duration {duration} != "
                           f"{chip.mix_duration}", i)
            if kind == INIT and (duration != 0 or start != 0):
                flag("R5", f"task {i}: init tasks are zero-length at time 0", i)
            if state is None or not (1 <= state <= instance.state_count):
                flag("R5", f"task {i}: {kind} needs a valid state", i)

    # R1: each qubit is a unary resource (closed-open intervals).
    per_qubit: dict[int, list[int]] = {q: [] for q in chip.qubits}
    for i, duration in enumerate(durations):
        if duration > 0:
            for q in qubits[i]:
                if q in per_qubit:
                    per_qubit[q].append(i)
    for q, ids in per_qubit.items():
        ids.sort(key=starts.__getitem__)
        for a, b in zip(ids, ids[1:]):      # a starts before b ends
            if starts[b] < ends[a]:
                flag("R1", f"tasks {a} and {b} overlap on qubit {q}", a, b)

    # R2: crosstalk exclusion around active 2-qubit gates. A busy task j
    # clashes with a busy gate i when they overlap and j uses a qubit of i's
    # zone, so each gate walks the R1 lists of its zone's qubits, which are
    # sorted by start: j starts before i ends, and a prefix maximum of ends
    # stops the walk once nothing earlier reaches past i's start.
    if instance.variant == inst.QCC_X:
        begins = {q: [starts[i] for i in ids] for q, ids in per_qubit.items()}
        reach = {q: list(accumulate([ends[i] for i in ids], max))
                 for q, ids in per_qubit.items()}
        zones = chip.crosstalk_zones
        clashes: set[tuple[int, int]] = set()
        for i in gates:
            if durations[i] <= 0:
                continue
            start, end = starts[i], ends[i]
            u, v = locations[i]
            for q in zones[u][v]:
                ids, ends_by = per_qubit[q], reach[q]
                k = bisect_left(begins[q], end) - 1
                while k >= 0 and ends_by[k] > start:
                    j = ids[k]                  # j starts before i ends
                    if start < ends[j]:
                        clashes.add((i, j) if i < j else (j, i))
                    k -= 1
        for i, j in sorted(clashes):
            flag("R2", f"tasks {i} and {j} violate the adjacent-qubit "
                       f"exclusion", i, j)

    # R3: exactly one PS task per goal.
    by_goal: dict[int, list[int]] = {}
    for i, kind in enumerate(kinds):
        if kind != PS:
            continue
        g = goals[i]
        if g is None or not (1 <= g <= instance.total_goals):
            flag("R3", f"task {i}: ps task has invalid goal index {g}", i)
        else:
            by_goal.setdefault(g, []).append(i)
    for g in range(1, instance.total_goals + 1):
        ids = by_goal.get(g, [])
        if not ids:
            flag("R3", f"goal {g} has no ps task")
        elif len(ids) > 1:
            flag("R3", f"goal {g} has {len(ids)} ps tasks", *ids)

    # R4: goal PS endpoints hold the goal's states when the gate starts.
    at_start = _held_at_ps(instance, kinds, locations, starts, qubits, states)
    for g, ids in by_goal.items():
        pair = instance.goal_pairs[g]
        for i in ids:
            held = at_start[i]
            if set(held) != set(pair):
                flag("R4", f"task {i}: goal {g} needs states {pair}, qubits "
                           f"{locations[i]} hold {held}", i)

    # R6: one mix per state, strictly between the two goal stages.
    mix_ids = [i for i, kind in enumerate(kinds) if kind == MIX]
    if instance.stages == 1:
        for i in mix_ids:
            flag("R6", f"task {i}: mix task in a single-stage schedule", i)
    else:
        by_state: dict[int, list[int]] = {}
        for i in mix_ids:
            if states[i] is not None:
                by_state.setdefault(states[i], []).append(i)
        for s in range(1, instance.state_count + 1):
            ids = by_state.get(s, [])
            if len(ids) != 1:
                flag("R6", f"state {s} has {len(ids)} mix tasks, needs 1", *ids)
                continue
            m = ids[0]
            for g in instance.state_goals[s]:
                stage = instance.goal_stage(g)
                for i in by_goal.get(g, ()):
                    if stage == 1 and ends[i] > starts[m]:
                        flag("R6", f"mix of state {s} starts before stage-1 "
                                   f"goal {g} ends", m, i)
                    if stage == 2 and ends[m] > starts[i]:
                        flag("R6", f"stage-2 goal {g} starts before mix of "
                                   f"state {s} ends", m, i)

    # R7: QCC-I initialization covers every qubit with all-different states.
    init_ids = [i for i, kind in enumerate(kinds) if kind == INIT]
    if instance.variant != inst.QCC_I:
        for i in init_ids:
            flag("R7", f"task {i}: init task outside the free-placement variant", i)
    else:
        by_qubit: dict[int, list[int]] = {}
        for i in init_ids:
            if isinstance(locations[i], int):
                by_qubit.setdefault(locations[i], []).append(i)
        states_seen = []
        for q in chip.qubits:
            ids = by_qubit.get(q, [])
            if len(ids) != 1:
                flag("R7", f"qubit {q} has {len(ids)} init tasks, needs 1", *ids)
            else:
                states_seen.append(states[ids[0]])
        expected = set(range(1, instance.state_count + 1))
        if len(by_qubit) == chip.qubit_count and set(states_seen) != expected:
            flag("R7", "init states are not a permutation of all states",
                 *init_ids)

    # R8: stored makespan and swap count match the task list.
    goal_ends = [ends[i] for ids in by_goal.values() for i in ids]
    expected_makespan = max(goal_ends, default=0)
    if schedule.makespan != expected_makespan:
        flag("R8", f"makespan {schedule.makespan} != latest goal completion "
                   f"{expected_makespan}")
    actual_swaps = kinds.count(SWAP)
    if schedule.swap_count != actual_swaps:
        flag("R8", f"swap_count {schedule.swap_count} != {actual_swaps} swap tasks")

    # R9: everything fits in the horizon.
    if horizon is None:
        horizon = instance.horizon
    for i, end in enumerate(ends):
        if end > horizon:
            flag("R9", f"task {i} ends at {end}, after horizon {horizon}", i)

    return ValidationReport(valid=not violations, violations=tuple(violations))


def score(best_makespan: int, schedule_makespan: int) -> float:
    """Plan-quality ratio best/actual, 1.0 when the schedule is best known."""
    if best_makespan <= 0 or schedule_makespan <= 0:
        raise ValueError("makespans must be positive")
    return best_makespan / schedule_makespan


def improvement_delta(before: int, after: int) -> float:
    """Percent makespan improvement; negative when `after` regressed."""
    if before <= 0 or after <= 0:
        raise ValueError("makespans must be positive")
    return 100.0 * (before - after) / before


# ---------------------------------------------------------------------------
# serialization

def _task_location(loc: list | int) -> tuple[int, int] | int:
    if isinstance(loc, int):
        return loc
    if len(loc) != 2:
        raise ParseError(f"task location {loc!r} is not a qubit or a pair")
    return tuple(of_type(q, "int", "task location qubit") for q in loc)


def _task_from_dict(d: dict) -> GateTask:
    return from_json(GateTask, d, "task",
                     {"location": ("list | int", _task_location)})


def schedule_from_dict(d: dict) -> Schedule:
    return from_json(Schedule, d, "schedule", {"tasks": (
        "list", lambda raw: tuple(_task_from_dict(t) for t in raw))})


def write_schedule(schedule: Schedule, path: str | Path) -> None:
    write_json(schedule, path)


def read_schedule(path: str | Path) -> Schedule:
    return read_json(path, schedule_from_dict)
