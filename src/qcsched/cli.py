"""Command-line front end: gen | solve | validate | bench | gantt."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bench import gen_suite, goals_from_density, run_matrix
from .gantt import render
from .hybrid import ENGINES, run_engine, write_report
from .instance import (Chip, ParseError, ValidationError, build_grid_chip,
                       build_preset_chip, read_instance, write_instance,
                       PRESET_CHIPS, QCC, QCC_I, QCC_X)
from .router import RoutingError
from .schedule import read_schedule, validate, write_schedule


def _parse_chip(spec: str) -> Chip:
    """'rigetti-8', 'rigetti-21', 'grid:3' or 'grid:3:all-blue'."""
    if spec in PRESET_CHIPS:
        return build_preset_chip(spec)
    kind, *args = spec.split(":")
    if kind == "grid" and 1 <= len(args) <= 2:
        try:
            return build_grid_chip(int(args[0]), *args[1:])
        except ValueError:
            pass
    raise SystemExit(f"unknown chip {spec!r}; use a preset name "
                     f"({', '.join(PRESET_CHIPS)}) or grid:SIDE[:COLORING]")


def _number(kind, ok, need: str):
    """An argparse ``type=`` that parses ``kind`` and rejects values that
    fail ``ok`` with a one-line usage error."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {need}")
        return value
    return parse


_SECONDS = _number(float, lambda v: 0 < v < math.inf,
                   "a positive, finite number of seconds")
_NON_NEGATIVE = _number(int, lambda v: v >= 0, "a non-negative integer")
_COUNT = _number(int, lambda v: v >= 1, "a count of at least 1")
_DENSITY = _number(float, lambda v: 0 <= v <= 1, "a fraction in [0, 1]")


def _goal_count(args, chip: Chip) -> int:
    if args.density is not None:
        return goals_from_density(chip, args.density)
    if args.goals is None:
        raise SystemExit("one of --goals or --density is required")
    pairs = math.comb(chip.qubit_count, 2)
    if args.goals > pairs:
        raise SystemExit(f"--goals {args.goals} exceeds the {pairs} distinct "
                         f"state pairs on {chip.qubit_count} qubits")
    return args.goals


def _add_instance_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chip", required=True,
                   help="preset name or grid:SIDE[:COLORING]")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--goals", type=_NON_NEGATIVE, help="number of goals")
    group.add_argument("--density", type=_DENSITY,
                       help="goals as a fraction of all state pairs")
    p.add_argument("--stages", type=int, choices=[1, 2], default=1)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_SECONDS, default=10.0,
                   help="wall-clock budget in seconds")
    p.add_argument("--node-budget", type=_NON_NEGATIVE, default=None,
                   help="search node cap for reproducible runs")
    p.add_argument("--seed", type=int, default=0)


def cmd_gen(args) -> int:
    chip = _parse_chip(args.chip)
    goals = _goal_count(args, chip)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = gen_suite(chip, args.count, goals, args.variant, args.stages,
                      seed=args.seed, label=args.label)
    for i, instance in enumerate(suite):
        path = out_dir / f"{instance.instance_id or i}.json"
        write_instance(instance, path)
        print(path)
    return 0


def cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    try:
        report = run_engine(instance, args.engine, args.budget,
                            seed=args.seed, node_budget=args.node_budget)
    except RoutingError as exc:     # a goal no swap path can route
        raise SystemExit(f"{args.instance}: {exc}") from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{instance.instance_id}-{args.engine}"
    write_report(report, out_dir / f"{stem}-report.json")
    if report.final is None:
        print(f"unsolved ({report.cp_status or report.status})")
        return 1
    write_schedule(report.final, out_dir / f"{stem}-schedule.json")
    print(f"makespan={report.final.makespan} swaps={report.final.swap_count} "
          f"status={report.cp_status or report.status}")
    return 0


def cmd_validate(args) -> int:
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    report = validate(instance, schedule)
    if report.valid:
        print(f"valid: makespan={schedule.makespan} "
              f"swaps={schedule.swap_count}")
        return 0
    for v in report.violations:
        print(f"{v.rule}: {v.detail}")
    return 1


def cmd_bench(args) -> int:
    chip = _parse_chip(args.chip)
    goals = _goal_count(args, chip)
    instances = []
    for variant in dict.fromkeys(args.variant or [QCC]):   # each once, in order
        instances += gen_suite(chip, args.count, goals, variant, args.stages,
                               seed=args.seed, label=f"{variant}-s{args.stages}")
    result = run_matrix(instances, list(dict.fromkeys(args.engine)),
                        args.budget, args.out_dir,
                        seed=args.seed, node_budget=args.node_budget)
    table = result.table()
    (Path(args.out_dir) / "table.txt").write_text(table)
    print(table, end="")
    errors = sum(result.errors(engine) for engine in result.engines)
    if errors:
        print(f"{errors} cell(s) raised; see their reports in {args.out_dir}",
              file=sys.stderr)
        return 1
    return 0


def cmd_gantt(args) -> int:
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    try:
        output = render(instance, schedule, args.format)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(output)
        print(args.out)
    else:
        print(output, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcsched",
        description="Makespan-minimizing swap-insertion scheduler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance suite")
    _add_instance_shape_flags(p)
    p.add_argument("--variant", choices=[QCC, QCC_I, QCC_X], default=QCC)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_COUNT, default=1)
    p.add_argument("--label", default="")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one engine on one instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--engine", choices=ENGINES, default="half")
    _add_engine_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a schedule (exit 0 iff valid)")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="run an engine matrix and print the table")
    _add_instance_shape_flags(p)
    p.add_argument("--variant", choices=[QCC, QCC_I, QCC_X], action="append",
                   default=None, help="repeatable; defaults to qcc")
    _add_engine_flags(p)
    p.add_argument("--count", type=_COUNT, default=5)
    p.add_argument("--engine", choices=ENGINES, action="append",
                   required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gantt", help="render a schedule as text or SVG")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--format", choices=["text", "svg"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gantt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:      # a file that cannot be read or written
        raise SystemExit(f"{exc.filename}: {exc.strerror}") from None
    except (ParseError, ValidationError) as exc:   # a malformed file
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
