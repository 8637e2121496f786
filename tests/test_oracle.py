from qcsched.instance import Instance, build_grid_chip, build_preset_chip, generate_instance
from qcsched.oracle import optimal_makespan
from qcsched.router import solve_greedy


def test_adjacent_goal_needs_no_swaps():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 2),))
    assert optimal_makespan(instance) == 3


def test_diagonal_goal_needs_one_swap():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 4),))
    assert optimal_makespan(instance) == 5    # swap (2 cycles) + blue gate


def test_worked_example_shape():
    chip = build_preset_chip("rigetti-8")
    instance = Instance(chip=chip, goals=((3, 4),))
    assert optimal_makespan(instance) == 5


def test_free_placement_skips_routing():
    chip = build_preset_chip("rigetti-8")
    instance = Instance(chip=chip, goals=((3, 4),), variant="qcc-i")
    assert optimal_makespan(instance) == 3    # place both on a blue edge


def test_two_stages_add_mix_and_second_gate():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 2),), stages=2)
    # gate, mix, gate: 3 + 1 + 3
    assert optimal_makespan(instance) == 7


def test_crosstalk_serializes_neighbors():
    chip = build_grid_chip(2, "all-blue")
    plain = Instance(chip=chip, goals=((1, 2), (3, 4)))
    blocked = Instance(chip=chip, goals=((1, 2), (3, 4)), variant="qcc-x")
    assert optimal_makespan(plain) == 3       # both gates in parallel
    assert optimal_makespan(blocked) == 6     # forced to run one at a time


def test_no_goals():
    chip = build_grid_chip(2)
    assert optimal_makespan(Instance(chip=chip, goals=())) == 0


def test_tight_horizon_infeasible():
    chip = build_grid_chip(2, "all-blue")
    instance = Instance(chip=chip, goals=((1, 4),))
    assert optimal_makespan(instance, horizon=4) is None


def test_never_beats_oracle():
    for side, gmax, stages_opts in ((2, 3, (1, 2)), (3, 2, (1,))):
        chip = build_grid_chip(side)
        for variant in ("qcc", "qcc-i", "qcc-x"):
            for stages in stages_opts:
                for seed in (0, 1):
                    instance = generate_instance(chip, gmax, stages=stages,
                                                 variant=variant, seed=seed)
                    opt = optimal_makespan(instance)
                    greedy = solve_greedy(instance, seed=seed).makespan
                    assert opt is not None
                    assert greedy >= opt
