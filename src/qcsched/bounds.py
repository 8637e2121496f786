"""Scheduling-horizon and swap-count upper bounds for the exact model.

The horizon comes from the sequential worst case: each goal is routed with at
most ``2*side - 3`` swaps and finished with the slowest gate. For two-stage
problems the stage blocks run back to back with one mixing window in between.
The cap of one swap task per gate per goal and stage is known to be loose in
rare cases; ``swap_multiplier`` widens it on demand.
"""

from __future__ import annotations

from .instance import Instance


def max_swap_distance(instance: Instance) -> int:
    """Most swaps ever needed to make two states adjacent: 2*side - 3."""
    return 2 * instance.chip.side_length - 3


def horizon_bound(instance: Instance) -> int:
    """Upper bound on the optimal makespan (sequential construction)."""
    chip = instance.chip
    per_goal = max_swap_distance(instance) * chip.swap_duration + chip.max_ps_duration
    single = instance.goal_count * per_goal
    if instance.stages == 1:
        return single
    return 2 * single + chip.mix_duration


def swap_task_bound(instance: Instance, multiplier: int = 1) -> int:
    """Swap tasks allowed per physical swap gate: one per goal per stage."""
    return instance.goal_count * instance.stages * multiplier
