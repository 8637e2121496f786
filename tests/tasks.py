"""Task constructors for tests: one ``GateTask`` of each kind."""

from qcsched.schedule import INIT, MIX, PS, SWAP, GateTask


def swap_task(u: int, v: int, start: int, duration: int) -> GateTask:
    return GateTask(SWAP, (min(u, v), max(u, v)), start, duration)


def ps_task(u: int, v: int, start: int, duration: int, goal_index: int) -> GateTask:
    return GateTask(PS, (min(u, v), max(u, v)), start, duration, goal_index=goal_index)


def mix_task(qubit: int, start: int, duration: int, state: int) -> GateTask:
    return GateTask(MIX, qubit, start, duration, state=state)


def init_task(qubit: int, state: int) -> GateTask:
    return GateTask(INIT, qubit, 0, 0, state=state)
