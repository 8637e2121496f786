"""The scheduling-horizon upper bound for the exact model.

The horizon comes from the sequential worst case: each goal is routed with at
most ``diameter - 1`` swaps, the diameter taken over the chip's swap graph,
and finished with the slowest gate. For two-stage problems the stage blocks
run back to back with one mixing window in between.
"""

from __future__ import annotations

from .instance import Instance


def max_swap_distance(instance: Instance) -> int:
    """Most swaps ever needed to make two states adjacent: diameter - 1."""
    return max(instance.chip.swap_diameter - 1, 0)


def horizon_bound(instance: Instance) -> int:
    """Upper bound on the optimal makespan (sequential construction)."""
    chip = instance.chip
    per_goal = max_swap_distance(instance) * chip.swap_duration + chip.max_ps_duration
    single = instance.goal_count * per_goal
    if instance.stages == 1:
        return single
    return 2 * single + chip.mix_duration

