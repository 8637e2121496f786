"""Timed gate schedules and the rule validator, with its qubit-state replay.

The validator is the project's ground truth: it shares no code with the
solvers and re-derives every property (resource exclusivity, crosstalk,
goal matching, stage separation, makespan accounting) from the raw task list.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from . import instance as inst
from .bounds import horizon_bound
from .instance import Instance, ParseError, parse_int, require_list

SWAP = "swap"
PS = "ps"
MIX = "mix"
INIT = "init"
TWO_QUBIT_KINDS = (SWAP, PS)


@dataclass(frozen=True)
class GateTask:
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


def swap_task(u: int, v: int, start: int, duration: int) -> GateTask:
    return GateTask(SWAP, (min(u, v), max(u, v)), start, duration)


def ps_task(u: int, v: int, start: int, duration: int, goal_index: int) -> GateTask:
    return GateTask(PS, (min(u, v), max(u, v)), start, duration, goal_index=goal_index)


def mix_task(qubit: int, start: int, duration: int, state: int) -> GateTask:
    return GateTask(MIX, qubit, start, duration, state=state)


def init_task(qubit: int, state: int) -> GateTask:
    return GateTask(INIT, qubit, 0, 0, state=state)


@dataclass(frozen=True)
class Schedule:
    tasks: tuple[GateTask, ...]
    makespan: int
    swap_count: int
    instance_id: str = ""

    @classmethod
    def from_tasks(cls, tasks, instance_id: str = "") -> "Schedule":
        tasks = tuple(sorted(tasks, key=_replay_key))
        goal_ends = [t.end for t in tasks if t.kind == PS and t.goal_index is not None]
        return cls(
            tasks=tasks,
            makespan=max(goal_ends, default=0),
            swap_count=sum(1 for t in tasks if t.kind == SWAP),
            instance_id=instance_id,
        )

    @property
    def total_span(self) -> int:
        return max((t.end for t in self.tasks), default=0)

    def objective(self) -> tuple[int, int]:
        """Lexicographic objective: makespan first, swap count as tiebreak."""
        return (self.makespan, self.swap_count)


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str
    task_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]
    state_trace: dict[int, list[tuple[int | None, int | None]]] = field(
        default_factory=dict, compare=False)

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


def _replay_key(task: GateTask):
    return (task.start, 0 if task.kind == INIT else 1, task.qubits)


def _initial_states(instance: Instance, tasks) -> dict[int, int | None]:
    if instance.variant == inst.QCC_I:
        states: dict[int, int | None] = {q: None for q in instance.chip.qubits}
        for t in tasks:
            if t.kind == INIT and isinstance(t.location, int):
                if t.location in states:
                    states[t.location] = t.state
        return states
    return {q: q for q in instance.chip.qubits}


def _replay(instance: Instance, tasks):
    """Chronological replay; returns (trace, states_at_start per task index).

    Assumes per-qubit non-overlap; callers check that separately first.
    """
    order = sorted(range(len(tasks)), key=lambda i: _replay_key(tasks[i]))
    states = _initial_states(instance, tasks)
    trace = {q: [(None, states[q])] for q in instance.chip.qubits}
    at_start: dict[int, tuple[int | None, ...]] = {}
    for i in order:
        t = tasks[i]
        at_start[i] = tuple(states.get(q) for q in t.qubits)
        if t.kind == SWAP and isinstance(t.location, tuple):
            u, v = t.location
            states[u], states[v] = states[v], states[u]
        for q in t.qubits:
            if q in states:
                trace[q].append((i, states[q]))
    return trace, at_start


def validate(instance: Instance, schedule: Schedule,
             horizon: int | None = None) -> ValidationReport:
    """Check every rule of the instance's variant; never raises on bad input."""
    tasks = schedule.tasks
    chip = instance.chip
    violations: list[Violation] = []

    def flag(rule, detail, *ids):
        violations.append(Violation(rule, detail, tuple(ids)))

    # R5: structural legality of each task (locations, durations, payloads).
    for i, t in enumerate(tasks):
        if t.kind not in (SWAP, PS, MIX, INIT):
            flag("R5", f"task {i}: unknown kind {t.kind!r}", i)
            continue
        if t.start < 0:
            flag("R5", f"task {i}: negative start {t.start}", i)
        if t.kind in TWO_QUBIT_KINDS:
            if not isinstance(t.location, tuple) or len(t.location) != 2:
                flag("R5", f"task {i}: {t.kind} needs an edge location", i)
                continue
            edge = chip.edge_between(*t.location)
            if edge is None:
                flag("R5", f"task {i}: no edge {t.location} on the chip", i)
                continue
            if t.kind == SWAP:
                if not edge.swap_enabled:
                    flag("R5", f"task {i}: edge {t.location} has no swap gate", i)
                if t.duration != chip.swap_duration:
                    flag("R5", f"task {i}: swap duration {t.duration} != "
                               f"{chip.swap_duration}", i)
            else:
                if t.duration != edge.ps_duration:
                    flag("R5", f"task {i}: ps duration {t.duration} != "
                               f"{edge.ps_duration} on edge {t.location}", i)
        else:
            if not isinstance(t.location, int) or t.location not in chip.qubits:
                flag("R5", f"task {i}: {t.kind} needs a valid qubit location", i)
                continue
            if t.kind == MIX and t.duration != chip.mix_duration:
                flag("R5", f"task {i}: mix duration {t.duration} != "
                           f"{chip.mix_duration}", i)
            if t.kind == INIT and (t.duration != 0 or t.start != 0):
                flag("R5", f"task {i}: init tasks are zero-length at time 0", i)
            if t.state is None or not (1 <= t.state <= instance.state_count):
                flag("R5", f"task {i}: {t.kind} needs a valid state", i)

    # R1: each qubit is a unary resource (closed-open intervals).
    per_qubit: dict[int, list[int]] = {q: [] for q in chip.qubits}
    for i, t in enumerate(tasks):
        if t.duration > 0:
            for q in t.qubits:
                if q in per_qubit:
                    per_qubit[q].append(i)
    for q, ids in per_qubit.items():
        ids.sort(key=lambda i: tasks[i].start)
        for a, b in zip(ids, ids[1:]):
            if tasks[a].overlaps(tasks[b]):
                flag("R1", f"tasks {a} and {b} overlap on qubit {q}", a, b)

    # R2: crosstalk exclusion around active 2-qubit gates. A busy task j
    # clashes with a busy gate i when they overlap and j uses a qubit of i's
    # zone, so each gate walks the R1 lists of its zone's qubits, which are
    # sorted by start: j starts before i ends, and a prefix maximum of ends
    # stops the walk once nothing earlier reaches past i's start.
    if instance.variant == inst.QCC_X:
        starts = {q: [tasks[i].start for i in ids]
                  for q, ids in per_qubit.items()}
        reach = {q: list(accumulate((tasks[i].end for i in ids), max))
                 for q, ids in per_qubit.items()}
        clashes: set[tuple[int, int]] = set()
        for i, t in enumerate(tasks):
            if t.duration <= 0 or t.kind not in TWO_QUBIT_KINDS \
                    or not isinstance(t.location, tuple) \
                    or not chip.edge_between(*t.location):
                continue
            u, v = t.location
            for q in chip.crosstalk_zones[u][v]:
                ids = per_qubit[q]
                k = bisect_left(starts[q], t.end) - 1
                while k >= 0 and reach[q][k] > t.start:
                    j = ids[k]
                    if tasks[j].overlaps(t):
                        clashes.add((min(i, j), max(i, j)))
                    k -= 1
        for i, j in sorted(clashes):
            flag("R2", f"tasks {i} and {j} violate the adjacent-qubit "
                       f"exclusion", i, j)

    # R3: exactly one PS task per goal.
    ps_ids = [i for i, t in enumerate(tasks) if t.kind == PS]
    by_goal: dict[int, list[int]] = {}
    for i in ps_ids:
        g = tasks[i].goal_index
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
    trace, at_start = _replay(instance, tasks)
    for g, ids in by_goal.items():
        pair = instance.goal_pairs[g]
        for i in ids:
            held = at_start[i]
            if set(held) != set(pair):
                flag("R4", f"task {i}: goal {g} needs states {pair}, qubits "
                           f"{tasks[i].location} hold {held}", i)

    # R6: one mix per state, strictly between the two goal stages.
    mix_ids = [i for i, t in enumerate(tasks) if t.kind == MIX]
    if instance.stages == 1:
        for i in mix_ids:
            flag("R6", f"task {i}: mix task in a single-stage schedule", i)
    else:
        by_state: dict[int, list[int]] = {}
        for i in mix_ids:
            if tasks[i].state is not None:
                by_state.setdefault(tasks[i].state, []).append(i)
        for s in range(1, instance.state_count + 1):
            ids = by_state.get(s, [])
            if len(ids) != 1:
                flag("R6", f"state {s} has {len(ids)} mix tasks, needs 1", *ids)
                continue
            m = tasks[ids[0]]
            for g in instance.state_goals[s]:
                stage = instance.goal_stage(g)
                for i in by_goal.get(g, ()):
                    if stage == 1 and tasks[i].end > m.start:
                        flag("R6", f"mix of state {s} starts before stage-1 "
                                   f"goal {g} ends", ids[0], i)
                    if stage == 2 and m.end > tasks[i].start:
                        flag("R6", f"stage-2 goal {g} starts before mix of "
                                   f"state {s} ends", ids[0], i)

    # R7: QCC-I initialization covers every qubit with all-different states.
    init_ids = [i for i, t in enumerate(tasks) if t.kind == INIT]
    if instance.variant != inst.QCC_I:
        for i in init_ids:
            flag("R7", f"task {i}: init task outside the free-placement variant", i)
    else:
        by_qubit: dict[int, list[int]] = {}
        for i in init_ids:
            if isinstance(tasks[i].location, int):
                by_qubit.setdefault(tasks[i].location, []).append(i)
        states_seen = []
        for q in chip.qubits:
            ids = by_qubit.get(q, [])
            if len(ids) != 1:
                flag("R7", f"qubit {q} has {len(ids)} init tasks, needs 1", *ids)
            else:
                states_seen.append(tasks[ids[0]].state)
        expected = set(range(1, instance.state_count + 1))
        if len(by_qubit) == chip.qubit_count and set(states_seen) != expected:
            flag("R7", "init states are not a permutation of all states",
                 *init_ids)

    # R8: stored makespan and swap count match the task list.
    goal_ends = [tasks[i].end for ids in by_goal.values() for i in ids]
    expected_makespan = max(goal_ends, default=0)
    if schedule.makespan != expected_makespan:
        flag("R8", f"makespan {schedule.makespan} != latest goal completion "
                   f"{expected_makespan}")
    actual_swaps = sum(1 for t in tasks if t.kind == SWAP)
    if schedule.swap_count != actual_swaps:
        flag("R8", f"swap_count {schedule.swap_count} != {actual_swaps} swap tasks")

    # R9: everything fits in the horizon.
    if horizon is None:
        horizon = horizon_bound(instance)
    for i, t in enumerate(tasks):
        if t.end > horizon:
            flag("R9", f"task {i} ends at {t.end}, after horizon {horizon}", i)

    return ValidationReport(valid=not violations, violations=tuple(violations),
                            state_trace=trace)


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

def _task_to_dict(t: GateTask) -> dict:
    return {
        "kind": t.kind,
        "location": list(t.location) if isinstance(t.location, tuple) else t.location,
        "start": t.start,
        "duration": t.duration,
        "goal_index": t.goal_index,
        "state": t.state,
    }


def _int_field(d: dict, key: str, default):
    """``d[key]`` or ``default``: an int, or None where the default is."""
    value = d.get(key, default)
    if value is None and default is None:
        return value
    return parse_int(value, f"task {key}")


def _task_from_dict(d: dict) -> GateTask:
    if not isinstance(d, dict) or not isinstance(d.get("kind", ""), str):
        raise ParseError(f"task {d!r} is not an object with a string kind")
    loc = d.get("location")
    if isinstance(loc, list) and len(loc) == 2 and \
            all(isinstance(q, int) for q in loc):
        loc = (loc[0], loc[1])
    elif not isinstance(loc, int):
        raise ParseError(f"task location {loc!r} is not a qubit or a pair")
    return GateTask(
        kind=d.get("kind", ""),
        location=loc,
        start=_int_field(d, "start", 0),
        duration=_int_field(d, "duration", 0),
        goal_index=_int_field(d, "goal_index", None),
        state=_int_field(d, "state", None),
    )


def schedule_to_dict(schedule: Schedule) -> dict:
    return {
        "instance_id": schedule.instance_id,
        "makespan": schedule.makespan,
        "swap_count": schedule.swap_count,
        "tasks": [_task_to_dict(t) for t in schedule.tasks],
    }


def schedule_from_dict(d: dict) -> Schedule:
    return Schedule(
        tasks=tuple(_task_from_dict(t)
                    for t in require_list(d, "tasks", "schedule")),
        makespan=d.get("makespan", 0),
        swap_count=d.get("swap_count", 0),
        instance_id=d.get("instance_id", ""),
    )


def write_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2) + "\n")


def read_schedule(path: str | Path) -> Schedule:
    try:
        return schedule_from_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
