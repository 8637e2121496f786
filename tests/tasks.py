"""Task constructors for tests: one ``GateTask`` of each kind; and the
round-trip check of a record's file form."""

import json
from dataclasses import MISSING, fields, is_dataclass

from qcsched.instance import to_json
from qcsched.schedule import INIT, MIX, PS, SWAP, GateTask


def swap_task(u: int, v: int, start: int, duration: int) -> GateTask:
    return GateTask(SWAP, (min(u, v), max(u, v)), start, duration)


def ps_task(u: int, v: int, start: int, duration: int, goal_index: int) -> GateTask:
    return GateTask(PS, (min(u, v), max(u, v)), start, duration, goal_index=goal_index)


def mix_task(qubit: int, start: int, duration: int, state: int) -> GateTask:
    return GateTask(MIX, qubit, start, duration, state=state)


def init_task(qubit: int, state: int) -> GateTask:
    return GateTask(INIT, qubit, 0, 0, state=state)


def assert_round_trips(record, read) -> None:
    """Every field of ``record`` differs from its default, ``to_json``
    writes the fields it compares by name in order, and ``read`` of that
    file form gives ``record`` back."""
    if is_dataclass(record):
        defaults = {f.name: f.default_factory()
                    if f.default_factory is not MISSING else f.default
                    for f in fields(record)}
        written = [f.name for f in fields(record) if f.compare]
    else:   # a NamedTuple
        defaults = {name: record._field_defaults.get(name, MISSING)
                    for name in record._fields}
        written = list(record._fields)
    for name, default in defaults.items():
        assert getattr(record, name) != default, name
    data = to_json(record)
    assert list(data) == written
    assert read(json.loads(json.dumps(data))) == record
