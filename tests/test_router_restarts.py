"""Pinned restarts and incumbents of seeded router runs.

Each case fixes an instance and runs ``solve_anytime`` for eight restarts.
It pins the first ten hex digits of ``sha1(repr(tasks))`` of the schedule
that each restart's ``solve_greedy`` call returns on its own, and of each
incumbent in the order ``solve_anytime`` records them (``b:`` the
sequential baseline, ``g:`` a greedy restart). So a change to the router's
internals must keep every restart, not only the best one, task for task.
"""

import hashlib

import pytest

from qcsched import router
from qcsched.instance import build_grid_chip, build_preset_chip, \
    generate_instance

RESTARTS = 8

CASES = [
    # (chip, goals, variant, stages, seed), restarts, incumbents
    (("rigetti-21", 20, "qcc", 1, 5),
     ("3e00963356", "e9b81ac9e2", "3e3d221cbe", "e5459c414d", "460e8d77d0",
      "f830bf321c", "4929da0679", "5341679c1d"),
     ("b:eebf27b46c", "g:3e00963356", "g:e5459c414d", "g:4929da0679")),
    (("rigetti-21", 20, "qcc", 2, 5),
     ("5bb4cb7854", "12d171329e", "4e5083e8d2", "9e1c884675", "677ad235fc",
      "53cbb277fc", "68203e6d20", "cea1b05cfd"),
     ("b:0d137c1b21", "g:5bb4cb7854", "g:9e1c884675", "g:68203e6d20")),
    (("rigetti-21", 20, "qcc-i", 1, 5),
     ("7e94297f0a", "2f3f9de200", "c5780dee82", "2cd5a23597", "187d95d894",
      "649aa15c67", "eff608a5c6", "31fb2d59af"),
     ("b:41933fb2f5", "g:7e94297f0a", "g:2f3f9de200", "g:649aa15c67",
      "g:eff608a5c6")),
    (("rigetti-21", 20, "qcc-i", 2, 5),
     ("3f3e7fca01", "e0beb5a487", "77c1dc3dba", "48760cac07", "d97744ff3e",
      "467cbc9b1c", "4712d4eaeb", "ba957d43cf"),
     ("b:9ce43236d2", "g:3f3e7fca01", "g:e0beb5a487", "g:77c1dc3dba",
      "g:467cbc9b1c", "g:4712d4eaeb")),
    (("rigetti-21", 20, "qcc-x", 1, 5),
     ("6121187282", "a40b649979", "50c15488c3", "37cdf8748f", "016d8d2cf1",
      "324454af44", "f881144b8e", "a5d971f3d7"),
     ("b:eebf27b46c", "g:6121187282", "g:016d8d2cf1", "g:324454af44")),
    (("rigetti-21", 20, "qcc-x", 2, 5),
     ("09b07dcc3b", "e12a15d342", "c7c4f380f1", "8d3aa95bdf", "f77d44eb5b",
      "5a7826879d", "656a581c59", "2593f6a23b"),
     ("b:0d137c1b21", "g:09b07dcc3b", "g:656a581c59")),
    (("rigetti-21", 40, "qcc", 1, 5),
     ("2efaa88b40", "b080653eeb", "dbabf8549b", "2a458ba13f", "c692b17a6d",
      "e204ffa5b9", "87fb3d854d", "ec49b28980"),
     ("b:943c0b7935", "g:2efaa88b40", "g:b080653eeb")),
    (("rigetti-21", 40, "qcc", 2, 5),
     ("ab8f2116fd", "75404adff1", "dfd505123e", "94ac86a580", "7ec50037f2",
      "f90535b0bf", "16a830a75d", "2360454fee"),
     ("b:1748957c1c", "g:ab8f2116fd")),
    (("rigetti-21", 40, "qcc-i", 1, 5),
     ("68d25933c4", "8b5e90f7f4", "1ac3c9b73e", "aa365f5ae3", "52dd70b87f",
      "77846c240a", "ff0e14ca89", "891a51a275"),
     ("b:d71fd0833b", "g:68d25933c4", "g:52dd70b87f", "g:ff0e14ca89")),
    (("rigetti-21", 40, "qcc-i", 2, 5),
     ("c456334f7d", "7c4b74a3f5", "0e79415f27", "ac5576d720", "7e10439a4f",
      "b00fdc821e", "3c63c35660", "a4952b170b"),
     ("b:eeac73addd", "g:c456334f7d", "g:7c4b74a3f5", "g:7e10439a4f")),
    (("rigetti-21", 40, "qcc-x", 1, 5),
     ("bcb34068da", "68eba90aa2", "bca0f11b8c", "aad439823e", "7f597a8153",
      "71571071a9", "89a3f5d764", "26e8cf7975"),
     ("b:943c0b7935", "g:bcb34068da", "g:68eba90aa2")),
    (("rigetti-21", 40, "qcc-x", 2, 5),
     ("011c84c7fc", "0161563937", "6b2bfbe63e", "6643485c8f", "30eab2a32c",
      "1bc3d1b594", "6ccf81a514", "041d9e3fc9"),
     ("b:1748957c1c", "g:011c84c7fc", "g:6643485c8f")),
    (("rigetti-21", 60, "qcc", 1, 5),
     ("63b839996f", "773f307e11", "51e4f9879f", "1af4a82219", "9120065cb5",
      "fc15a3cdc1", "56331474d1", "c964104098"),
     ("b:b62dfa22b6", "g:63b839996f", "g:773f307e11", "g:fc15a3cdc1")),
    (("rigetti-21", 60, "qcc", 2, 5),
     ("f967fc721d", "205d063166", "36c46ef4e2", "6bce17d088", "2f7ba936c6",
      "d312c02d27", "dfef3946e8", "12730184b3"),
     ("b:47602205fb", "g:f967fc721d", "g:205d063166", "g:d312c02d27")),
    (("rigetti-21", 60, "qcc-i", 1, 5),
     ("e6b34db5e1", "5825c0b8af", "60961f59cb", "3f029f5588", "10b2605ce8",
      "ab6c233591", "606a8b6012", "64b906f44a"),
     ("b:14a791ac57", "g:e6b34db5e1", "g:64b906f44a")),
    (("rigetti-21", 60, "qcc-i", 2, 5),
     ("6f1465f54c", "782b91fadb", "98a46eaeb1", "83d4b0403d", "718d2f7161",
      "892749e396", "ce90e992ee", "364956d88e"),
     ("b:568193fafc", "g:6f1465f54c", "g:782b91fadb")),
    (("rigetti-21", 60, "qcc-x", 1, 5),
     ("aab380a11e", "e4f063a880", "181938a9a6", "a8b1799b60", "aba66db0ba",
      "f76ce5f62e", "2d8e1d5cb3", "7b303792da"),
     ("b:b62dfa22b6", "g:aab380a11e", "g:e4f063a880", "g:181938a9a6",
      "g:f76ce5f62e")),
    (("rigetti-21", 60, "qcc-x", 2, 5),
     ("742a3c2c04", "f334588ac2", "a8d13939ec", "7498cde77f", "5a60c0ec60",
      "dd0c901ad7", "766263e778", "962700d8b2"),
     ("b:47602205fb", "g:742a3c2c04", "g:f334588ac2", "g:dd0c901ad7")),
    (("rigetti-8", 4, "qcc", 1, 7),
     ("70fba85ab7", "23dbca0732", "b12e049d60", "23dbca0732", "058ee34223",
      "058ee34223", "23dbca0732", "23dbca0732"),
     ("b:0c8292a16f", "g:70fba85ab7", "g:23dbca0732")),
    (("rigetti-8", 4, "qcc", 2, 7),
     ("26bf04fa83", "897dd9cadc", "1a52c4565d", "897dd9cadc", "d7aa8ff668",
      "d7aa8ff668", "897dd9cadc", "897dd9cadc"),
     ("b:6b24489d5e", "g:26bf04fa83", "g:897dd9cadc")),
    (("rigetti-8", 4, "qcc-i", 1, 7),
     ("f414259962", "a789e456b1", "79880bd97d", "5eb7135820", "1cb2a1c9ee",
      "168ad47a8c", "5a9614991f", "b56272d23d"),
     ("b:8f8f2a197e", "g:f414259962", "g:1cb2a1c9ee", "g:168ad47a8c")),
    (("rigetti-8", 4, "qcc-i", 2, 7),
     ("c6c4ed23ff", "69c4bc4b9e", "bcff10c40d", "b68fa39611", "5d92c64fbc",
      "44ea5a0610", "bba25e9ac9", "c237d978f4"),
     ("b:f44f7a1b41", "g:c6c4ed23ff", "g:5d92c64fbc", "g:44ea5a0610")),
    (("rigetti-8", 4, "qcc-x", 1, 7),
     ("9c8c301083", "09d0ca0e87", "446d7cc01c", "09d0ca0e87", "47aec6d6bc",
      "47aec6d6bc", "09d0ca0e87", "09d0ca0e87"),
     ("b:0c8292a16f", "g:09d0ca0e87")),
    (("rigetti-8", 4, "qcc-x", 2, 7),
     ("d4d55b50f5", "932c9d24b7", "db60201f93", "307f761add", "80c6d730a9",
      "80c6d730a9", "db4e02f74e", "307f761add"),
     ("b:6b24489d5e", "g:d4d55b50f5", "g:932c9d24b7", "g:307f761add")),
    (("grid:3", 5, "qcc", 1, 7),
     ("c2fb94db3b", "f77c990d52", "6cf8d84ada", "0cb117eb02", "b822761378",
      "df6e6bea6e", "1e92829bbd", "0cb117eb02"),
     ("b:51e840713d", "g:c2fb94db3b", "g:1e92829bbd")),
    (("grid:3", 5, "qcc", 2, 7),
     ("f6b1f9ae3b", "f164611aba", "de75e119d0", "0bc72f7d92", "0f98aa4ff7",
      "03ab1d7f25", "3cc7e6a2f2", "0bc72f7d92"),
     ("b:caa740448a", "g:f6b1f9ae3b", "g:3cc7e6a2f2")),
    (("grid:3", 5, "qcc-i", 1, 7),
     ("161e79d405", "1fec62c368", "038e0a1ff1", "b4bcc2fa19", "8d3a1b2962",
      "4d80b567f3", "41879e7e7f", "df172f00e8"),
     ("b:d3bb3cfec6", "g:161e79d405", "g:1fec62c368", "g:8d3a1b2962")),
    (("grid:3", 5, "qcc-i", 2, 7),
     ("5b47fea959", "c5b22a8fa7", "3befe32f41", "57e45e56e5", "0a52b1ecab",
      "213cf03e1f", "b94f9c8c46", "a27fdf59ac"),
     ("b:c46a539bbf", "g:5b47fea959", "g:c5b22a8fa7", "g:0a52b1ecab")),
    (("grid:3", 5, "qcc-x", 1, 7),
     ("1a8ddd43cf", "cb2ca36be1", "91a07d8b21", "f53d7d9f5e", "db9ad9efd3",
      "2cfab4b4ba", "e63a1de3d4", "f53d7d9f5e"),
     ("b:51e840713d", "g:1a8ddd43cf", "g:db9ad9efd3", "g:2cfab4b4ba")),
    (("grid:3", 5, "qcc-x", 2, 7),
     ("aee1dd7b0e", "e79c6ddd89", "77e4cb588a", "579c3525bd", "e1e730ef17",
      "5b4807adee", "3f55ce23bd", "f548165aba"),
     ("b:caa740448a", "g:aee1dd7b0e", "g:e79c6ddd89", "g:3f55ce23bd")),
]


def _digest(tasks) -> str:
    return hashlib.sha1(repr(tasks).encode()).hexdigest()[:10]


@pytest.mark.parametrize("case,restarts,incumbents", CASES,
                         ids=["-".join(map(str, c)) for c, _, _ in CASES])
def test_every_restart_and_incumbent_is_pinned(case, restarts, incumbents,
                                               monkeypatch):
    chip_name, goals, variant, stages, seed = case
    chip = build_grid_chip(3) if chip_name == "grid:3" \
        else build_preset_chip(chip_name)
    instance = generate_instance(chip, goals, stages=stages, variant=variant,
                                 seed=seed)
    greedy, seeds = router.solve_greedy, []

    def spy(instance, seed=0, **kwargs):
        seeds.append(seed)
        return greedy(instance, seed, **kwargs)

    monkeypatch.setattr(router, "solve_greedy", spy)
    result = router.solve_anytime(instance, budget_s=None, seed=seed,
                                  max_restarts=RESTARTS)
    assert len(seeds) == RESTARTS
    assert tuple(_digest(greedy(instance, s).tasks) for s in seeds) \
        == restarts
    assert tuple(f"{i.source[0]}:{_digest(i.schedule.tasks)}"
                 for i in result.incumbents) == incumbents
    assert result.best is result.incumbents[-1].schedule
