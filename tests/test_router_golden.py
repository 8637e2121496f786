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
     (48, 50, "1442b75a9b2dc92e554ea703af5e71d40b8a77c3")),
    (("rigetti-21", 20, "qcc", 1, 11),
     (42, 36, "378ffac077bfd20d2a8640a790ebe1289fbc57ef")),
    (("rigetti-21", 20, "qcc", 2, 3),
     (85, 63, "ef4d27706d899815257442d8d677114cf880a684")),
    (("rigetti-21", 20, "qcc", 2, 11),
     (87, 63, "57c82448584390116b63055056aba77be1d7c58c")),
    (("rigetti-21", 20, "qcc-i", 1, 3),
     (28, 13, "4caf8b714c4a1bc8d8b5f7466ea87d3b4db2b2b3")),
    (("rigetti-21", 20, "qcc-i", 1, 11),
     (31, 22, "f6360278fd6cf6371502e3075a6cbbf2d536af31")),
    (("rigetti-21", 20, "qcc-i", 2, 3),
     (60, 34, "744b3f0179b9fb210e98bc7657df84bd9a6808f7")),
    (("rigetti-21", 20, "qcc-i", 2, 11),
     (64, 38, "b0951060a04c7d68c4f03ca54749a6452837e24c")),
    (("rigetti-21", 20, "qcc-x", 1, 3),
     (71, 50, "8e5e97b90967a7fda27a39ba3941024ae8573957")),
    (("rigetti-21", 20, "qcc-x", 1, 11),
     (50, 36, "aed2fedc57454a147510e05026be212840b81e21")),
    (("rigetti-21", 20, "qcc-x", 2, 3),
     (103, 63, "94bff2bcd9a3d0d35e2e9394349b6b9e5a3c89fd")),
    (("rigetti-21", 20, "qcc-x", 2, 11),
     (108, 63, "b1793574b32bbec1eb059ae9dc73cb33e8cb1478")),
    (("grid:3", 6, "qcc", 1, 3),
     (16, 6, "906dde29e245663fc01522251b529d7097080d30")),
    (("grid:3", 6, "qcc", 1, 11),
     (13, 3, "97390278a8673c879828195a5e0b6465929522fe")),
    (("grid:3", 6, "qcc", 2, 3),
     (33, 8, "87571fb7c62b19aab55bffcaeaf9ef941124d565")),
    (("grid:3", 6, "qcc", 2, 11),
     (26, 5, "12df8acda987336ddabf12d98fa63343e93eebb7")),
    (("grid:3", 6, "qcc-i", 1, 3),
     (11, 1, "a17e49ac766deb63fae71871214eccd40a69f6a5")),
    (("grid:3", 6, "qcc-i", 1, 11),
     (12, 1, "b3a34e57d7139b6d122f6e69644f92a35b8fc88b")),
    (("grid:3", 6, "qcc-i", 2, 3),
     (25, 2, "bb7809fb82529f11ee1b128928bd8fadcc07b7f7")),
    (("grid:3", 6, "qcc-i", 2, 11),
     (25, 2, "7c207a81e8a7840c2c31a856be4624fa90eba246")),
    (("grid:3", 6, "qcc-x", 1, 3),
     (23, 6, "c0d446eef6bbe7d201431928e928127d9d00ece0")),
    (("grid:3", 6, "qcc-x", 1, 11),
     (21, 3, "daa337a8910a7f67dc0c67701b7cf0ace8c78c6c")),
    (("grid:3", 6, "qcc-x", 2, 3),
     (47, 8, "a6683f17668c53878a248a176a122242b01ca240")),
    (("grid:3", 6, "qcc-x", 2, 11),
     (39, 4, "e532dfbbc132a592852afed16ef6f4e4110dd848")),
    # route-21 sizes: long crosstalk interval lists and long pending lists
    (("rigetti-21", 60, "qcc-x", 2, 3),
     (288, 165, "184c74b9ccecb60797ee550bff7410a793afc8f7")),
    (("rigetti-21", 60, "qcc-x", 2, 11),
     (288, 158, "de27ce1a2108ced8ab9cc29cec5a551505662e44")),
    (("rigetti-21", 40, "qcc-i", 1, 3),
     (64, 58, "ae0379c9912ea6e6d6b286b99d8df5b6a8819943")),
    (("rigetti-21", 40, "qcc-i", 1, 11),
     (62, 43, "92c2e01fb8991e3ddd0481e4fb0b261795192915")),
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
