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
     ("7511edf0f5", "c5e6d33cf0", "497a25ac05", "d4d70300bc", "ecebb81bc9",
      "53b8d27c94", "fc70550233", "9184abeb7e"),
     ("b:eebf27b46c", "g:7511edf0f5", "g:497a25ac05")),
    (("rigetti-21", 20, "qcc", 2, 5),
     ("64a42848e9", "8beb145829", "154b67ee04", "3d05f8c607", "fbd0b0f367",
      "9f4c1479e6", "00d9f5cd87", "7e446b6b67"),
     ("b:0d137c1b21", "g:64a42848e9", "g:3d05f8c607")),
    (("rigetti-21", 20, "qcc-i", 1, 5),
     ("e5b35580d7", "faac1512f3", "8225327e47", "c8cddb4973", "101250989a",
      "594a326cf0", "31e6ea264d", "84a3c02eef"),
     ("b:41933fb2f5", "g:e5b35580d7", "g:c8cddb4973", "g:101250989a")),
    (("rigetti-21", 20, "qcc-i", 2, 5),
     ("8d301e2a7e", "9baa8ee73f", "07aa4d7901", "4bd1fb0c73", "9c5eca9323",
      "347768dcb9", "4d2408bd34", "24ede46a9c"),
     ("b:9ce43236d2", "g:8d301e2a7e", "g:9baa8ee73f", "g:07aa4d7901",
      "g:9c5eca9323", "g:24ede46a9c")),
    (("rigetti-21", 20, "qcc-x", 1, 5),
     ("908fc32ce5", "5fa4b58b33", "e31bfe8247", "07d52f03f7", "2aa761fea8",
      "c157a5884f", "e477c9ddb0", "bc0411ca22"),
     ("b:eebf27b46c", "g:908fc32ce5", "g:5fa4b58b33", "g:e31bfe8247",
      "g:c157a5884f")),
    (("rigetti-21", 20, "qcc-x", 2, 5),
     ("4158a19693", "bd5760ec9c", "9c6b5aaa28", "a4867b4ea3", "0d6829c614",
      "d8a9c64bfb", "5dfa6074e8", "bdb588eec2"),
     ("b:0d137c1b21", "g:4158a19693", "g:bd5760ec9c", "g:a4867b4ea3",
      "g:0d6829c614", "g:d8a9c64bfb")),
    (("rigetti-21", 40, "qcc", 1, 5),
     ("2b921136ca", "349688abb6", "a02273b552", "8f11c07699", "133daff52e",
      "e63f7beab1", "a7d5fd8474", "8bc720fa8e"),
     ("b:943c0b7935", "g:2b921136ca", "g:8f11c07699", "g:e63f7beab1",
      "g:a7d5fd8474")),
    (("rigetti-21", 40, "qcc", 2, 5),
     ("8b1d09730f", "3fd103ae51", "b1ed5c70b9", "a798af4759", "28aab9c738",
      "6242b57df4", "00ba7c2f17", "18b1ffade0"),
     ("b:1748957c1c", "g:8b1d09730f", "g:b1ed5c70b9", "g:00ba7c2f17")),
    (("rigetti-21", 40, "qcc-i", 1, 5),
     ("c4ac4a2f07", "a61db5b8cf", "9fa84f27ac", "f9ef7a096b", "8161a211ba",
      "be7640cc71", "f096917ce3", "f75073ebb6"),
     ("b:d71fd0833b", "g:c4ac4a2f07")),
    (("rigetti-21", 40, "qcc-i", 2, 5),
     ("89cc58be13", "62e683ec99", "5a84147922", "c706fd115b", "9cef119207",
      "c45d90d91e", "05df161ba9", "49af92fcec"),
     ("b:eeac73addd", "g:89cc58be13", "g:5a84147922", "g:05df161ba9")),
    (("rigetti-21", 40, "qcc-x", 1, 5),
     ("745ca443a5", "2469844118", "0ae9dc0ed5", "b5e2e23e57", "239dd309cc",
      "f2f8ab7e7d", "5ed4888ea2", "cafeed697e"),
     ("b:943c0b7935", "g:745ca443a5", "g:0ae9dc0ed5", "g:5ed4888ea2")),
    (("rigetti-21", 40, "qcc-x", 2, 5),
     ("a7239e40f2", "50f4be9ec7", "1f67bff497", "896e67521a", "47b99af3a1",
      "ae33242553", "4462acb43c", "42921dadc0"),
     ("b:1748957c1c", "g:a7239e40f2", "g:1f67bff497")),
    (("rigetti-21", 60, "qcc", 1, 5),
     ("1f78fd5d33", "52671d6a72", "067fdf6836", "d1f3b81788", "720ded7778",
      "8a1226bdf3", "44047ec673", "d49fe8dd66"),
     ("b:b62dfa22b6", "g:1f78fd5d33", "g:52671d6a72", "g:067fdf6836")),
    (("rigetti-21", 60, "qcc", 2, 5),
     ("9bcc18a5a2", "5879f12680", "ca9252a8fb", "850d04c3f3", "d542c32baa",
      "bc692060e8", "cedf9d8f40", "b937024519"),
     ("b:47602205fb", "g:9bcc18a5a2", "g:5879f12680", "g:ca9252a8fb",
      "g:d542c32baa", "g:cedf9d8f40")),
    (("rigetti-21", 60, "qcc-i", 1, 5),
     ("0e40341a26", "2d73139674", "ac04ccfa2b", "8162a78cb2", "1398a5dd28",
      "dcd65315ed", "6e3695a4b2", "cfba7e4820"),
     ("b:14a791ac57", "g:0e40341a26", "g:2d73139674")),
    (("rigetti-21", 60, "qcc-i", 2, 5),
     ("127018600b", "6526c390d6", "d7bed715e0", "d3d3ef6947", "327b23f56f",
      "7d26c9883d", "ae7c707dbd", "ca28002284"),
     ("b:568193fafc", "g:127018600b", "g:6526c390d6", "g:d7bed715e0",
      "g:ae7c707dbd", "g:ca28002284")),
    (("rigetti-21", 60, "qcc-x", 1, 5),
     ("01d066f6cb", "8f0cc4771f", "3751fd935a", "4000416eed", "bd342bcc16",
      "dfdeb6b88c", "9ca6c0a2cb", "83462e726d"),
     ("b:b62dfa22b6", "g:01d066f6cb", "g:8f0cc4771f", "g:3751fd935a")),
    (("rigetti-21", 60, "qcc-x", 2, 5),
     ("7d5044f40f", "7b5dd3e4af", "17dedc939a", "88e2a5d3b8", "60f460b855",
      "f6873ac303", "58822acdf1", "e583e64786"),
     ("b:47602205fb", "g:7d5044f40f", "g:7b5dd3e4af", "g:17dedc939a")),
    (("rigetti-8", 4, "qcc", 1, 7),
     ("4a2c237b9b", "0e5bde8626", "ed5961f831", "02d7bf1039", "aff62e1eb5",
      "e2c4c8e7c1", "857d1f7aaf", "857d1f7aaf"),
     ("b:0c8292a16f", "g:4a2c237b9b", "g:0e5bde8626")),
    (("rigetti-8", 4, "qcc", 2, 7),
     ("a3c78159ad", "e76a213d84", "3e90f91151", "6453ea0985", "51a3888ca0",
      "8d18a10870", "de0f5e256d", "de0f5e256d"),
     ("b:6b24489d5e", "g:a3c78159ad", "g:e76a213d84", "g:3e90f91151")),
    (("rigetti-8", 4, "qcc-i", 1, 7),
     ("f414259962", "ba3a06019a", "cd913af258", "7adddc7104", "1cb2a1c9ee",
      "168ad47a8c", "b39818fc1c", "a51cd1da7e"),
     ("b:8f8f2a197e", "g:f414259962", "g:cd913af258")),
    (("rigetti-8", 4, "qcc-i", 2, 7),
     ("8afa2a6fec", "f7da179fec", "72b8abfc7c", "0610b957d6", "b0c1f0f379",
      "44ea5a0610", "fa1e497ea7", "616114724a"),
     ("b:f44f7a1b41", "g:8afa2a6fec", "g:72b8abfc7c", "g:0610b957d6")),
    (("rigetti-8", 4, "qcc-x", 1, 7),
     ("0f8b0d3b84", "40ff1cb7a1", "a0af9b8759", "b7e0e28667", "dd07aa103f",
      "a25be8ff69", "da7feb888b", "da7feb888b"),
     ("b:0c8292a16f", "g:40ff1cb7a1", "g:a0af9b8759")),
    (("rigetti-8", 4, "qcc-x", 2, 7),
     ("f75485409a", "2e7325711c", "8e4151edf1", "7135ff017b", "e782bb7fb4",
      "1bbae98170", "0c2f239fcb", "0c2f239fcb"),
     ("b:6b24489d5e", "g:f75485409a", "g:2e7325711c", "g:8e4151edf1")),
    (("grid:3", 5, "qcc", 1, 7),
     ("d50de22657", "9ea1b32a1c", "b83d8e136e", "d71b66e326", "5c7363160d",
      "9da32a63ef", "661d049989", "2be604041b"),
     ("b:51e840713d", "g:d50de22657", "g:b83d8e136e")),
    (("grid:3", 5, "qcc", 2, 7),
     ("75c5ed26d5", "a634697712", "64cabb0711", "3037df89d0", "ccdb519d35",
      "8966701b1a", "065bc0ae3a", "08d98a73d9"),
     ("b:caa740448a", "g:75c5ed26d5", "g:64cabb0711", "g:3037df89d0")),
    (("grid:3", 5, "qcc-i", 1, 7),
     ("5bb83a48f3", "1fec62c368", "aabf164309", "5475cc9e69", "95aa87a477",
      "4d80b567f3", "d382a915f6", "df172f00e8"),
     ("b:d3bb3cfec6", "g:5bb83a48f3")),
    (("grid:3", 5, "qcc-i", 2, 7),
     ("10f7fbaea7", "ada95c717e", "ae89d885e1", "6b36a5b1a1", "134fbffd8d",
      "9f08c38f8f", "3d0c91eaba", "986582dd5f"),
     ("b:c46a539bbf", "g:10f7fbaea7")),
    (("grid:3", 5, "qcc-x", 1, 7),
     ("93331c809d", "e43d159921", "be1f95954d", "e63a1de3d4", "c0faecd837",
      "986a4676c0", "28cbdbba01", "277d34b48b"),
     ("b:51e840713d", "g:93331c809d", "g:be1f95954d")),
    (("grid:3", 5, "qcc-x", 2, 7),
     ("4a08e8571f", "c2c6e0566f", "e4dda1d95f", "5232269c34", "0f151b536a",
      "7e5368467c", "03cbb8f633", "6629b9f22a"),
     ("b:caa740448a", "g:4a08e8571f", "g:e4dda1d95f")),
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
