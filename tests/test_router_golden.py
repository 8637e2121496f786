"""Pinned outcomes of seeded router runs.

Each case fixes an instance and a restart budget and pins the makespan, the
swap count and a hash of the full task list that ``solve_anytime`` returned
when the values were recorded. A change to the router's internals must leave
all of them as they are; a change that means to move them must say so.
"""

import hashlib

import pytest

from qcsched.instance import build_grid_chip, build_preset_chip, \
    generate_instance
from qcsched.router import solve_anytime

CASES = [
    # (chip, goals, variant, stages, seed), (makespan, swaps, sha1 of tasks)
    (("rigetti-21", 20, "qcc", 1, 3),
     (35, 49, "f565e75ca6ab486bae4cb216cc8eb6a360399c61")),
    (("rigetti-21", 20, "qcc", 1, 11),
     (34, 38, "ec14fb0a46081b79602b56df35ee6b70421283c0")),
    (("rigetti-21", 20, "qcc", 2, 3),
     (73, 76, "e729268cb7838a68f16600a85892921512ab82f3")),
    (("rigetti-21", 20, "qcc", 2, 11),
     (70, 68, "c18facaf4b3032418bcf0aecf267873860e8b29c")),
    (("rigetti-21", 20, "qcc-i", 1, 3),
     (25, 22, "28baa83f131124fbb34ebb2fe563ea1cf9ef090c")),
    (("rigetti-21", 20, "qcc-i", 1, 11),
     (24, 18, "fe8dfdb54418a36705d8c730e2b628163fb27fb7")),
    (("rigetti-21", 20, "qcc-i", 2, 3),
     (51, 51, "d9a7da0863db6aac8c6aadcb4cc18563379e1737")),
    (("rigetti-21", 20, "qcc-i", 2, 11),
     (49, 34, "abc72c51cc91788d679b019891afa10ba7dcddcd")),
    (("rigetti-21", 20, "qcc-x", 1, 3),
     (62, 46, "45361e991f571826f557a6905a922aafc8295099")),
    (("rigetti-21", 20, "qcc-x", 1, 11),
     (50, 42, "f5dafaf2476f76c1a40db1e2f7400046bcd78611")),
    (("rigetti-21", 20, "qcc-x", 2, 3),
     (115, 76, "a43c553af5877dd3c4a79521f748b193b22dce0d")),
    (("rigetti-21", 20, "qcc-x", 2, 11),
     (95, 72, "837a128be9b827225f4b56acd722c9b309c681fd")),
    (("grid:3", 6, "qcc", 1, 3),
     (14, 6, "344cfa1c3f62aa9c1f8e0cbbb8cbf7d725afcbbe")),
    (("grid:3", 6, "qcc", 1, 11),
     (13, 3, "caff37295e013eac95bdf0fc89e5e22af2f6dd39")),
    (("grid:3", 6, "qcc", 2, 3),
     (26, 9, "db87bde94fa6a03678fbc3791c6a2389a89bd6d9")),
    (("grid:3", 6, "qcc", 2, 11),
     (26, 5, "4229d964a32c86f0029383d1eda52c4f3ec2f814")),
    (("grid:3", 6, "qcc-i", 1, 3),
     (11, 1, "a17e49ac766deb63fae71871214eccd40a69f6a5")),
    (("grid:3", 6, "qcc-i", 1, 11),
     (10, 1, "c81adb0644cd41422979ef38655c9995b3fe08a0")),
    (("grid:3", 6, "qcc-i", 2, 3),
     (23, 2, "5967919b4e434ee5eebfed407453bd88e2fc0224")),
    (("grid:3", 6, "qcc-i", 2, 11),
     (21, 2, "e5b4ca04668c885ce866a9103b45d536099872f0")),
    (("grid:3", 6, "qcc-x", 1, 3),
     (22, 5, "a5d66717968690ab12658e86d9e9bcccf026de53")),
    (("grid:3", 6, "qcc-x", 1, 11),
     (23, 3, "136e129cb3233284f397efd4caa8cf2e41080a70")),
    (("grid:3", 6, "qcc-x", 2, 3),
     (44, 7, "ddd64e9a421b9ea9da2aaddd28c93d3dfb633e12")),
    (("grid:3", 6, "qcc-x", 2, 11),
     (46, 5, "d795e0369e20869df64f972c52dfb0216cf4a3c9")),
    # route-21 sizes: long crosstalk interval lists and long pending lists
    (("rigetti-21", 60, "qcc-x", 2, 3),
     (299, 164, "9591945bb13ac273bc4c4af95416f6e233d3b136")),
    (("rigetti-21", 60, "qcc-x", 2, 11),
     (272, 148, "64385075841777483b7948b53ad1f996fa6cdafc")),
    (("rigetti-21", 40, "qcc-i", 1, 3),
     (51, 49, "e6f9ef9c21dd7878d0293dd7ae3377ce74f9aead")),
    (("rigetti-21", 40, "qcc-i", 1, 11),
     (55, 58, "bc1d77d8071cfb3c855cdec939e161b3240b9987")),
]


@pytest.mark.parametrize("case,expected", CASES,
                         ids=["-".join(map(str, c)) for c, _ in CASES])
def test_router_outcome_is_pinned(case, expected):
    chip_name, goals, variant, stages, seed = case
    chip = build_grid_chip(3) if chip_name == "grid:3" \
        else build_preset_chip(chip_name)
    instance = generate_instance(chip, goals, stages=stages, variant=variant,
                                 seed=seed)
    best = solve_anytime(instance, budget_s=None, seed=seed,
                         max_restarts=4).best
    assert (best.makespan, best.swap_count,
            hashlib.sha1(repr(best.tasks).encode()).hexdigest()) == expected
