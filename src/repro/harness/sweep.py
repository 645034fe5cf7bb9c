"""Parameter sweeps over experiment configs.

A sweep is an ordered mapping ``label -> config``; :func:`run_sweep`
executes each and returns ``label -> result``, preserving order so the
benchmark printers emit columns in the declared order.

Sweep entries are fully independent simulated worlds, so they route
through :func:`repro.harness.parallel.run_tasks`: ``workers=1`` keeps
the historical in-process behavior, ``workers=N`` fans the configs out
over N processes with identical results (every experiment is
deterministic in its config alone).
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.harness.parallel import ProgressCallback, Task, run_tasks

__all__ = ["run_sweep"]


def _sweep_task(
    config: ExperimentConfig, measure_lookups: bool, profile: bool = False
) -> ExperimentResult:
    """Module-level task body so worker processes can unpickle it."""
    profiler = None
    if profile:
        from repro.obs.prof import StageProfiler

        profiler = StageProfiler()
    return run_experiment(config, measure_lookups=measure_lookups, profiler=profiler)


def run_sweep(
    configs: dict[str, ExperimentConfig],
    *,
    measure_lookups: bool = True,
    workers: int = 1,
    progress: ProgressCallback | None = None,
    task_timeout: float | None = None,
    max_retries: int = 1,
    profile: bool = False,
) -> dict[str, ExperimentResult]:
    """Run every labelled config; returns results in the same order.

    ``progress`` receives structured
    :class:`~repro.harness.parallel.TaskEvent` notifications (label,
    status, elapsed) as each config starts, finishes, or is retried;
    wrap a :class:`~repro.harness.parallel.ProgressRollup` around it for
    the fleet-level done/total + ETA line behind the CLI's ``--monitor``.
    With ``profile=True`` each result carries its worker's wall-clock
    stage timings (merge across results with
    :func:`repro.obs.prof.merge_profiles`).

    Configs with ``trace_streaming=True`` run their streaming consumers
    *inside* the worker (reconstructed deterministically from the config
    by :func:`~repro.harness.experiment.monitor_consumers`) and ship the
    finished consumers back on ``result.consumers`` — aggregates are
    identical to a serial run of the same config.
    """
    tasks = [
        Task(label, _sweep_task, (cfg, measure_lookups, profile))
        for label, cfg in configs.items()
    ]
    return run_tasks(
        tasks,
        workers=workers,
        progress=progress,
        task_timeout=task_timeout,
        max_retries=max_retries,
    )
