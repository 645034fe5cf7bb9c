"""Experiment harness: configs, time-series runner, sweeps, reporting."""

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    World,
    build_world,
    run_experiment,
)
from repro.harness.parallel import Task, TaskEvent, run_tasks
from repro.harness.replicate import replicate
from repro.harness.reporting import format_series, format_table
from repro.harness.sweep import run_sweep

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "Task",
    "TaskEvent",
    "World",
    "build_world",
    "format_series",
    "format_table",
    "replicate",
    "run_experiment",
    "run_sweep",
    "run_tasks",
]
