"""Work-budgeted solve benchmark for qcsched.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

Builds the workload's cells from the seed, runs every cell (one engine on one
instance, then ``validate``) in one process and thread, and repeats the
whole pass while the time allows. Quality comes from the first pass; every
later pass must reproduce it exactly. Each cell's time is scaled to a
reference machine speed (see ``run_pass``) and is its median over the
passes. With ``--trace 1`` one further pass runs with spans around the
package's public functions and the per-layer metrics are reported instead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (cells), ``failed`` (cells that raised, returned an invalid
schedule, or contradicted a bound or the oracle) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("route-21", "exact-small", "suite")
SETUP_SAMPLES = 5


def setup(name: str, seed: int):
    """Import the package, load the chips and generate the cells, timed."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    # Imported here, not at the top, so that the import is part of set-up.
    import qcsched
    if Path(qcsched.__file__).resolve().parent != SRC / "qcsched":
        raise SystemExit(f"qcsched must come from {SRC}, "
                         f"not {qcsched.__file__}")
    import workloads
    workload = workloads.WORKLOADS[name]
    cells = workloads.build_cells(workload, seed)
    return workload, cells, perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, at reference speed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


# The reference loop's time at the reference speed. Cell times are scaled
# by REFERENCE_S / (the loop's time measured around the cell).
REFERENCE_S = 0.0025


def reference_loop() -> int:
    """Fixed pure-Python work (dict and tuple churn, as in the solvers) that
    shares no code with the package, so its time tracks only the machine."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(6000):
        key = (i % 89, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) & 3
    return acc


def at_reference_speed(seconds: float) -> float:
    """Scale a time measured just now by the machine's speed now."""
    loops = []
    for _ in range(3):
        t = perf_counter()
        reference_loop()
        loops.append(perf_counter() - t)
    return seconds * REFERENCE_S / statistics.median(loops)


def run_pass(cells, budget, order_seed: str, tracer=None):
    """Run every cell once, in an order shuffled by ``order_seed``.

    A shared machine's speed drifts by tens of percent over seconds and
    minutes. A fresh order in each pass spreads a slow spell over random
    cells, and the reference loop, timed before each cell, gives the speed
    at the time: a cell's scaled time is its time times REFERENCE_S over
    the median loop time of the 11 loops centred on it.
    Returns outcomes, raw seconds and scaled seconds, in cell order.
    """
    import workloads
    order = list(range(len(cells)))
    random.Random(order_seed).shuffle(order)
    outcomes, raw = [None] * len(cells), [0.0] * len(cells)
    loops = []
    for i in order:
        t = perf_counter()
        reference_loop()
        loops.append(perf_counter() - t)
        cell = cells[i]
        if tracer is None:
            outcomes[i], raw[i] = workloads.run_cell(cell, budget)
        else:
            tracer.cell = cell.cid
            with tracer.span("cell"):
                outcomes[i], raw[i] = workloads.run_cell(cell, budget)
    scaled = [0.0] * len(cells)
    for pos, i in enumerate(order):
        speed = statistics.median(loops[max(0, pos - 5):pos + 6])
        scaled[i] = raw[i] * REFERENCE_S / speed
    return outcomes, raw, scaled


def oracle_cheap(cell) -> bool:
    """Instances whose optimum the brute-force oracle usually finds in about
    0.1 s (at worst 20 s in probes): rigetti-8, one stage, qcc or qcc-x, at
    most four goals. With five goals it took up to 37 s."""
    from qcsched.instance import QCC, QCC_X
    i = cell.instance
    return (cell.chip == "rigetti-8" and i.stages == 1 and i.goal_count <= 4
            and i.variant in (QCC, QCC_X))


def check(cells, outcomes, bounds) -> tuple[dict[int, str], int]:
    """Why each failed cell failed: it raised, returned an invalid schedule,
    went below the lower bound, or claimed an optimum (or infeasibility)
    that the oracle contradicts. The oracle is too slow to run on every
    instance, so only claims on oracle-cheap instances are cross-checked."""
    from qcsched import oracle
    from qcsched.cpsolver import INFEASIBLE, OPTIMAL
    failed: dict[int, str] = {}
    optimum: dict[str, int | None] = {}
    claims = 0
    for cell, o in zip(cells, outcomes):
        if o.error:
            failed[cell.cid] = o.error
        elif o.makespan is not None and not o.valid:
            failed[cell.cid] = "invalid schedule"
        elif o.valid and o.makespan < bounds[cell.instance.label][0]:
            failed[cell.cid] = (f"makespan {o.makespan} below the lower "
                                f"bound {bounds[cell.instance.label][0]}")
        elif o.status in (OPTIMAL, INFEASIBLE) and oracle_cheap(cell):
            claims += 1
            label = cell.instance.label
            if label not in optimum:
                optimum[label] = oracle.optimal_makespan(cell.instance)
            if o.makespan != optimum[label]:
                failed[cell.cid] = (f"{o.status} {o.makespan} contradicts "
                                    f"the oracle optimum {optimum[label]}")
    return failed, claims


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(cells, outcomes, failed, bounds, cell_times, raw_times,
               setup_s):
    """name -> (value, unit, note) for the untraced run."""
    def ranked(times):
        # A failed cell sorts after every finished one: it costs the pass.
        return [sum(times) if c.cid in failed else t
                for c, t in zip(cells, times)]

    n = len(cells)
    solved = sum(o.valid and c.cid not in failed
                 for c, o in zip(cells, outcomes))
    searched = [o for c, o in zip(cells, outcomes) if c.engine != "router"]
    optimal = sum(o.status == "optimal" for o in searched)
    log_ratio = []
    for c, o in zip(cells, outcomes):
        lower, upper = bounds[c.instance.label]
        makespan = o.makespan if o.valid and c.cid not in failed else upper
        log_ratio.append(math.log(makespan / lower))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s",
                    f"median of {SETUP_SAMPLES} set-ups, at reference speed"),
        "cell_s_p50": (nearest_rank(ranked(cell_times), 0.5), "s",
                       f"n={n}, at reference speed; raw "
                       f"{nearest_rank(ranked(raw_times), 0.5):.6g} s"),
        "cell_s_p90": (nearest_rank(ranked(cell_times), 0.9), "s",
                       f"n={n}, {n - math.ceil(0.9 * n)} beyond; raw "
                       f"{nearest_rank(ranked(raw_times), 0.9):.6g} s"),
        "mk_lb_gmean": (math.exp(sum(log_ratio) / n), "ratio",
                        "makespan / lower bound; unsolved at upper bound"),
        "solved_share": (solved / n, "share", f"{solved}/{n} cells"),
        "optimal_share": (optimal / len(searched) if searched else None,
                          "share", f"{optimal}/{len(searched)} searches"),
        "failed_share": (len(failed) / n, "share", f"{len(failed)}/{n} cells"),
        "peak_rss_mb": (rss_mb, "MB", "measuring process"),
    }


# Reported in the JSON result; optimal_share and failed_share can be 0 or
# undefined, so they are printed above it and carried by "failed".
END_TO_END = ("setup_s", "cell_s_p50", "cell_s_p90", "mk_lb_gmean",
              "solved_share", "peak_rss_mb")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload, cells, own_setup = setup(args.workload, args.seed)
    own_setup = at_reference_speed(own_setup)
    if args.setup_probe:
        print(own_setup)
        return 0
    import workloads
    budget = workload.budget
    bounds = workloads.bounds(cells)
    tag = f"{args.workload}:{args.seed}"

    t0 = perf_counter()
    first, raw, scaled = run_pass(cells, budget, f"{tag}:0")
    passes = [(raw, scaled)]
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer.installed():
            failed, claims = check(cells, first, bounds)
            traced, _, traced_times = run_pass(cells, budget,
                                               f"{tag}:traced", tracer)
    else:
        failed, claims = check(cells, first, bounds)
    repeats = []
    while perf_counter() - t0 + sum(passes[-1][0]) <= args.seconds:
        outcomes, raw, scaled = run_pass(cells, budget,
                                         f"{tag}:{len(passes)}")
        repeats.append(outcomes)
        passes.append((raw, scaled))
    raw_times = [statistics.median(ts) for ts in zip(*(p[0] for p in passes))]
    cell_times = [statistics.median(ts) for ts in zip(*(p[1] for p in passes))]

    def differing(runs):
        return sorted({c.cid for again in runs
                       for c, a, b in zip(cells, first, again)
                       if a.key() != b.key()})

    print(f"workload {args.workload} seed {args.seed}: {len(cells)} cells, "
          f"{len(passes)} untraced passes of median "
          f"{statistics.median(sum(p[0]) for p in passes):.2f} s, {budget}, "
          f"{claims} claims checked against the oracle")
    for cid, why in sorted(failed.items()):
        c = cells[cid]
        print(f"failed cell {cid} {c.instance.label} {c.engine}: {why}")
    mismatched = differing(repeats)
    for cid in mismatched:
        c = cells[cid]
        print(f"nondeterministic cell {cid} {c.instance.label} {c.engine}")
    wrong = [cid for cid in failed if not first[cid].error]

    if args.trace:
        for cid in differing([traced]):
            c = cells[cid]
            print(f"traced pass differs on cell {cid} {c.instance.label} "
                  f"{c.engine}")
        table = tracing.layer_metrics(tracer.spans)
        table["trace.overhead_share"] = (
            sum(traced_times) / sum(cell_times) - 1, "share",
            "traced pass / untraced median pass - 1, at reference speed")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path}")
        shown = table
    else:
        setups = [own_setup] + [probe_setup(args.workload, args.seed)
                                for _ in range(SETUP_SAMPLES - 1)]
        shown = end_to_end(cells, first, failed, bounds, cell_times, raw_times,
                           statistics.median(setups))
        table = {name: shown[name] for name in END_TO_END}
    for name, (value, unit, note) in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32s} {text:>12s} {unit:6s} {note}")
    print(json.dumps({
        "correct": not mismatched and not wrong,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
