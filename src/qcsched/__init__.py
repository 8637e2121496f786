"""Makespan-minimizing swap-insertion scheduler for fixed chip architectures."""

from .instance import (Chip, Edge, Instance, build_grid_chip, build_preset_chip,
                       generate_instance, read_instance, write_instance)
from .schedule import (GateTask, Schedule, ValidationReport, improvement_delta,
                       read_schedule, score, validate, write_schedule)
from .router import solve_anytime, solve_greedy, solve_sequential_baseline
from .cpsolver import build_model, check_assignment, propagate, search, warm_start
from .hybrid import RunReport, read_report, run_engine, write_report
from .bench import gen_suite, run_matrix
from .fixtures import worked_example

__all__ = [
    "Chip", "Edge", "Instance", "build_grid_chip", "build_preset_chip",
    "generate_instance", "read_instance", "write_instance",
    "GateTask", "Schedule", "ValidationReport", "improvement_delta",
    "read_schedule", "score", "validate", "write_schedule",
    "solve_anytime", "solve_greedy", "solve_sequential_baseline",
    "build_model", "check_assignment", "propagate", "search", "warm_start",
    "RunReport", "read_report", "run_engine", "write_report",
    "gen_suite", "run_matrix",
    "worked_example",
]
