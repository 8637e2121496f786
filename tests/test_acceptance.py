"""End-to-end acceptance checks; each test prints one pass/fail line."""

import math
import random
import sys
import time
from dataclasses import replace

from qcsched.bench import gen_suite, run_matrix
from qcsched.bounds import horizon_bound
from qcsched.cpsolver import OPTIMAL, build_model, check_assignment, search
from qcsched.fixtures import worked_example
from qcsched.hybrid import run_engine
from qcsched.instance import (Instance, build_grid_chip, build_preset_chip,
                              generate_instance)
from qcsched.oracle import optimal_makespan
from qcsched.router import solve_greedy, solve_sequential_baseline
from qcsched.schedule import Schedule, improvement_delta, score, validate


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[{verdict}] criterion {number}: {label}{tail}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number}: {label}{tail}"


def test_criterion_1_worked_example():
    instance, schedule = worked_example()
    report = validate(instance, schedule)
    result = search(build_model(instance), budget_s=10.0)
    ok = (report.valid and schedule.makespan == 5
          and result.status == OPTIMAL and result.best.makespan == 5)
    _report(1, "bundled example is valid with makespan 5 and proven optimal",
            ok, f"validator={report.valid} solver={result.status}/"
                f"{result.best.makespan if result.best else None}")


def test_criterion_2_baseline_within_horizon():
    t0 = time.monotonic()
    chips = [build_preset_chip("rigetti-8"), build_preset_chip("rigetti-21"),
             build_grid_chip(2), build_grid_chip(3), build_grid_chip(4)]
    checked = failures = 0
    for chip in chips:
        gmax = min(8, math.comb(chip.qubit_count, 2))
        for goals in range(1, gmax + 1):
            for variant in ("qcc", "qcc-i", "qcc-x"):
                for stages in (1, 2):
                    for seed in range(3):
                        instance = generate_instance(
                            chip, goals, stages=stages, variant=variant,
                            seed=seed)
                        schedule = solve_sequential_baseline(instance)
                        checked += 1
                        if (not validate(instance, schedule).valid
                                or schedule.total_span
                                > horizon_bound(instance)):
                            failures += 1
    elapsed = time.monotonic() - t0
    ok = checked >= 500 and failures == 0 and elapsed < 60
    _report(2, "sequential baseline fits the horizon bound on every instance",
            ok, f"{checked} instances, {failures} failures, {elapsed:.1f}s")


def test_criterion_3_exact_search_matches_oracle():
    cases = []
    for goals in (1, 2, 3):
        for variant in ("qcc", "qcc-i", "qcc-x"):
            for stages in (1, 2):
                for seed in range(3):
                    cases.append((2, goals, variant, stages, seed))
    for goals in (1, 2):
        for variant in ("qcc", "qcc-i", "qcc-x"):
            for seed in range(3):
                cases.append((3, goals, variant, 1, seed))
    mismatches = []
    for side, goals, variant, stages, seed in cases:
        chip = build_grid_chip(side)
        instance = generate_instance(chip, goals, stages=stages,
                                     variant=variant, seed=seed)
        expected = optimal_makespan(instance)
        result = search(build_model(instance), node_budget=10**6)
        if result.status != OPTIMAL or result.best.makespan != expected:
            mismatches.append((instance.instance_id, expected,
                               result.status))
    ok = not mismatches
    _report(3, "exhaustive-suite search optima equal the brute-force oracle",
            ok, f"{len(cases)} cases, {len(mismatches)} mismatches")


def _mutate(schedule: Schedule, instance: Instance,
            rng: random.Random) -> Schedule:
    tasks = [t for t in schedule.tasks if t.kind != "init"]
    inits = [t for t in schedule.tasks if t.kind == "init"]
    kind = rng.randrange(6)
    if kind == 0 and tasks:                       # shift one task in time
        i = rng.randrange(len(tasks))
        shift = rng.choice([-3, -1, 1, 2])
        tasks[i] = tasks[i]._replace(start=max(0, tasks[i].start + shift))
    elif kind == 1 and tasks:                     # stretch or shrink one task
        i = rng.randrange(len(tasks))
        tasks[i] = tasks[i]._replace(
            duration=max(0, tasks[i].duration + rng.choice([-1, 1])))
    elif kind == 2 and tasks:                     # relocate one task
        i = rng.randrange(len(tasks))
        t = tasks[i]
        if isinstance(t.location, tuple):
            edge = rng.choice(instance.chip.edges)
            tasks[i] = t._replace(location=edge.pair)
        else:
            tasks[i] = t._replace(
                location=rng.choice(list(instance.chip.qubits)))
    elif kind == 3 and tasks:                     # drop one task
        del tasks[rng.randrange(len(tasks))]
    elif kind == 4:                               # corrupt stored makespan
        return replace(schedule, makespan=schedule.makespan + 1)
    else:                                         # corrupt stored swap count
        return replace(schedule, swap_count=schedule.swap_count + 1)
    return replace(schedule, tasks=tuple(inits + tasks))


def test_criterion_4_model_validator_agreement():
    rng = random.Random(1234)
    chips = [build_grid_chip(2), build_grid_chip(3),
             build_preset_chip("rigetti-8")]
    checked = disagreements = 0
    while checked < 20000:
        chip = rng.choice(chips)
        goals = rng.randrange(1, 4)
        variant = rng.choice(("qcc", "qcc-i", "qcc-x"))
        stages = rng.choice((1, 2))
        instance = generate_instance(chip, goals, stages=stages,
                                     variant=variant,
                                     seed=rng.getrandbits(32))
        model = build_model(instance)
        valid = solve_greedy(instance, seed=rng.getrandbits(32))
        mutated = _mutate(valid, instance, rng)
        for schedule in (valid, mutated):
            model_ok = check_assignment(model, schedule)[0]
            rules_ok = validate(instance, schedule).valid
            checked += 1
            if model_ok != rules_ok:
                disagreements += 1
    ok = disagreements == 0
    _report(4, "constraint model and rule validator agree on fuzzed schedules",
            ok, f"{checked} schedules, {disagreements} disagreements")


def test_criterion_5_hybrids_never_regress():
    failures = total = 0
    for chip in (build_grid_chip(2), build_preset_chip("rigetti-8")):
        for variant in ("qcc", "qcc-i", "qcc-x"):
            for stages in (1, 2):
                suite = gen_suite(chip, 3, 2, variant, stages,
                                  seed=11, label=f"dom-{variant}-{stages}")
                for instance in suite:
                    for engine in ("half", "last"):
                        report = run_engine(instance, engine, budget_s=0.3,
                                            seed=11)
                        total += 1
                        if (report.final.objective()
                                > report.handoff.objective()):
                            failures += 1
    ok = failures == 0
    _report(5, "hybrid finals never regress past their own first stage",
            ok, f"{total} runs, {failures} regressions")


def _crosstalk_clean(instance: Instance, schedule: Schedule) -> bool:
    tasks = [t for t in schedule.tasks if t.duration > 0]
    for t in tasks:
        if not isinstance(t.location, tuple):
            continue
        u, v = t.location
        zone = instance.chip.crosstalk_zones[u][v]
        for other in tasks:
            if other is t or not other.overlaps(t):
                continue
            if zone & set(other.qubits):
                return False
    return True


def test_criterion_6_crosstalk_exclusion():
    rng = random.Random(99)
    chips = [build_grid_chip(2), build_grid_chip(3),
             build_preset_chip("rigetti-8")]
    checked = failures = 0
    while checked < 1000:
        chip = rng.choice(chips)
        instance = generate_instance(chip, rng.randrange(1, 5),
                                     stages=rng.choice((1, 2)),
                                     variant="qcc-x",
                                     seed=rng.getrandbits(32))
        schedule = solve_greedy(instance, seed=rng.getrandbits(32))
        checked += 1
        if not _crosstalk_clean(instance, schedule):
            failures += 1
    ok = failures == 0
    _report(6, "no gate runs beside an active neighbor under crosstalk rules",
            ok, f"{checked} schedules, {failures} overlaps")


def test_criterion_7_mix_separates_the_stages():
    rng = random.Random(7)
    chips = [build_grid_chip(2), build_grid_chip(3),
             build_preset_chip("rigetti-8")]
    checked = failures = 0
    while checked < 500:
        chip = rng.choice(chips)
        instance = generate_instance(chip, rng.randrange(1, 5), stages=2,
                                     variant=rng.choice(("qcc", "qcc-i",
                                                         "qcc-x")),
                                     seed=rng.getrandbits(32))
        schedule = solve_greedy(instance, seed=rng.getrandbits(32))
        checked += 1
        n = instance.goal_count
        mixes = {t.state: t for t in schedule.tasks if t.kind == "mix"}
        for state in {s for pair in instance.goals for s in pair}:
            first_ends = [t.end for t in schedule.tasks if t.kind == "ps"
                          and t.goal_index <= n
                          and state in instance.goal_pair(t.goal_index)]
            second_starts = [t.start for t in schedule.tasks
                             if t.kind == "ps" and t.goal_index > n
                             and state in instance.goal_pair(t.goal_index)]
            mix = mixes.get(state)
            if (mix is None or mix.start < max(first_ends)
                    or mix.end > min(second_starts)):
                failures += 1
                break
    ok = failures == 0
    _report(7, "every state's mix falls between its two gate stages",
            ok, f"{checked} solutions, {failures} violations")


def test_criterion_8_scoring_fixture():
    cases_ok = (
        score(5, 5) == 1.0,
        score(5, 10) == 0.5,
        score(3, 4) == 0.75,
        score(7, 8) == 0.875,
        score(9, 12) == 0.75,
        improvement_delta(26, 27) == -3.8461538461538463,
        improvement_delta(10, 5) == 50.0,
        improvement_delta(8, 8) == 0.0,
        improvement_delta(20, 19) == 5.0,
        improvement_delta(13, 12) == 7.6923076923076925,
    )
    ok = all(cases_ok)
    _report(8, "score and improvement percentages match hand-computed values",
            ok, f"{sum(cases_ok)}/10 exact")


def test_criterion_9_half_hybrid_helps_under_crosstalk(tmp_path):
    chip = build_preset_chip("rigetti-8")
    suite = gen_suite(chip, 20, 4, "qcc-x", 1, seed=2026, label="desk")
    result = run_matrix(suite, ["router", "half"], budget_s=10.0,
                        out_dir=tmp_path, seed=2026)
    router_avg = result.cell("router", ("qcc-x", 1))[0]
    half_avg = result.cell("half", ("qcc-x", 1))[0]
    ok = (router_avg is not None and half_avg is not None
          and half_avg >= router_avg)
    _report(9, "split-budget hybrid scores at least the router alone",
            ok, f"half={half_avg:.4f} router={router_avg:.4f}")
