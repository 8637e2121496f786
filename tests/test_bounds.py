from qcsched.bounds import horizon_bound, max_swap_distance
from qcsched.instance import Instance, build_grid_chip, build_preset_chip


def _instance(chip, goals, stages=1):
    return Instance(chip=chip, goals=goals, stages=stages)


def test_max_swap_distance_presets():
    # diameter - 1: the same 2*side - 3 that the chips' side lengths gave,
    # except on rigetti-21, whose graph is tighter than its side length 5
    assert max_swap_distance(_instance(build_preset_chip("rigetti-8"),
                                       ((1, 2),))) == 3
    assert max_swap_distance(_instance(build_preset_chip("rigetti-21"),
                                       ((1, 2),))) == 6
    for side in (2, 3, 4):
        assert max_swap_distance(_instance(build_grid_chip(side),
                                           ((1, 2),))) == 2 * side - 3


def test_horizon_single_stage():
    chip = build_preset_chip("rigetti-8")
    instance = _instance(chip, ((1, 2), (3, 4), (5, 6), (7, 8), (1, 3)))
    # five goals, each up to 3 swaps of 2 cycles plus the slowest gate (4)
    assert horizon_bound(instance) == 5 * (3 * 2 + 4)


def test_horizon_two_stage():
    chip = build_grid_chip(2)
    instance = _instance(chip, ((1, 4),), stages=2)
    single = 1 * ((2 * 2 - 3) * 2 + 4)
    assert horizon_bound(instance) == 2 * single + 1


def test_horizon_no_goals():
    chip = build_grid_chip(2)
    assert horizon_bound(_instance(chip, ())) == 0
    assert horizon_bound(_instance(chip, (), stages=2)) == 1

