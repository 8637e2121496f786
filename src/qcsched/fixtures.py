"""Bundled reference artifacts: a solved single-goal example on rigetti-8.

Two swaps pull states 3 and 4 onto the blue edge (n1, n2), where the goal's
phase-separation gate finishes at cycle 5 — the smallest possible makespan
for that goal on that chip.
"""

from __future__ import annotations

from .instance import DATA, Instance, _instance_from_dict, read_json
from .schedule import Schedule, schedule_from_dict


def worked_example() -> tuple[Instance, Schedule]:
    instance = read_json(DATA / "example-instance.json",
                         lambda d: _instance_from_dict(d, "worked-example"))
    return instance, read_json(DATA / "example-schedule.json",
                               schedule_from_dict)
