"""Shared configuration for the figure-regeneration benchmarks.

The paper's default world (Section 5.1): GT-ITM ``ts-large``, 1000
overlay nodes, metrics sampled as the protocol runs.  ``PAPER`` mirrors
those defaults; the heterogeneity constants live in ``FIG7``.

Every benchmark runs its deployment exactly once (pedantic mode): the
meaningful output is the regenerated series, the wall-clock time is
reported for scale context only.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.harness.experiment import ExperimentConfig

__all__ = [
    "PAPER",
    "FIG7",
    "HISTORY_PATH",
    "add_workers_option",
    "kernel_profile_enabled",
    "record_history",
    "run_once",
    "workers_from_config",
]

#: Append-only benchmark trajectory (gated by ``make bench-check``).
#: Override with the ``REPRO_BENCH_HISTORY`` env var (a path, or ``0``
#: to disable recording entirely).
HISTORY_PATH = Path(__file__).resolve().parent / "history.jsonl"

# Section 5.1 defaults: ts-large, n = 1000, probe timer 60 s.  One
# simulated hour with 6-minute samples covers warm-up (10 probes) and
# the converged tail.
PAPER = dict(
    preset="ts-large",
    n_overlay=1000,
    duration=3600.0,
    sample_interval=360.0,
    lookups_per_sample=1000,
)

# Section 5.3 heterogeneous environment: bimodal processing delay
# (fast 1 ms / slow 100 ms, 50 % fast — the Dabek-style setting), fast
# hosts attract more connections, floods are TTL-7 scoped with requery.
FIG7 = dict(
    preset="ts-large",
    n_overlay=1000,
    duration=1800.0,
    sample_interval=900.0,
    lookups_per_sample=600,
    heterogeneous=True,
    fast_fraction=0.5,
    fast_ms=1.0,
    slow_ms=100.0,
    fast_degree_weight=8.0,
    flood_ttl=7,
    overlay_options={"min_degree": 3, "mean_extra_degree": 3.0},
)


def kernel_profile_enabled() -> bool:
    """Opt into per-category kernel profiling via ``REPRO_KERNEL_PROFILE``.

    Off by default so the recorded wall-seconds stay comparable with the
    unprofiled history (the disabled profiler costs one attribute
    check); set ``REPRO_KERNEL_PROFILE=1`` to also record per-category
    ``kernel.*`` seconds, letting ``bench-check`` localize a regression
    to a category instead of a single wall-seconds number.
    """
    return os.environ.get("REPRO_KERNEL_PROFILE", "") not in ("", "0", "off")


def _history_path() -> Path | None:
    """Where history records go; ``None`` when recording is disabled."""
    env = os.environ.get("REPRO_BENCH_HISTORY")
    if env is None:
        return HISTORY_PATH
    if env in ("", "0", "off"):
        return None
    return Path(env)


def record_history(bench: str, metrics: dict, *, config=None, higher=()) -> None:
    """Append one schema-versioned record to the benchmark history.

    ``config`` (an :class:`ExperimentConfig`, when the bench has a
    single defining one) supplies the fingerprint and seed; ``higher``
    names the higher-is-better metrics (the gate reads the rest as
    lower-is-better).  The timestamp is stamped here, in the bench
    harness — wall clocks never run inside the sim.
    """
    path = _history_path()
    if path is None:
        return
    from repro.obs.bench_history import append_record, current_git_rev, history_record
    from repro.obs.report import config_fingerprint

    append_record(
        path,
        history_record(
            bench,
            fingerprint=config_fingerprint(config) if config is not None else "unknown",
            seed=int(getattr(config, "seed", 0)) if config is not None else 0,
            metrics=metrics,
            git_rev=current_git_rev(Path(__file__).resolve().parent),
            timestamp=time.time(),
            higher=higher,
        ),
    )


def run_once(benchmark, fn, *, config=None):
    """Execute ``fn`` exactly once under the benchmark timer.

    Every run also lands one wall-seconds record in the benchmark
    history (:data:`HISTORY_PATH`) keyed by the pytest-benchmark node
    name, so ``make bench-check`` can gate the next run against the
    trailing median.  Pass ``config`` when the bench has one defining
    :class:`ExperimentConfig` so the record carries its fingerprint.
    """
    timing: dict[str, float] = {}

    def timed():
        started = time.perf_counter()
        out = fn()
        timing["seconds"] = time.perf_counter() - started
        return out

    result = benchmark.pedantic(timed, rounds=1, iterations=1)
    seconds = timing.get("seconds")
    if seconds is not None:
        metrics = {"wall_seconds": round(seconds, 4)}
        # benches returning an ExperimentResult from a kernel-profiled
        # config also record per-category seconds, so bench-check can
        # localize a regression to a category
        kernel = getattr(result, "kernel_profile", None)
        if kernel:
            for category, ns in sorted(kernel.get("categories", {}).items()):
                metrics[f"kernel.{category}"] = round(ns / 1e9, 4)
            metrics["kernel.untracked"] = round(
                kernel.get("untracked_ns", 0) / 1e9, 4
            )
        record_history(
            getattr(benchmark, "name", "unnamed"),
            metrics,
            config=config,
        )
    return result


def add_workers_option(parser) -> None:
    """Register the suite-wide ``--workers`` flag (called from conftest).

    Sweep- and replication-driven benches fan their independent worlds
    out over this many processes via ``repro.harness.parallel``;
    results are identical for every value (determinism guarantee), only
    wall-clock changes.
    """
    parser.addoption(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep/replication benches "
             "(default: 1 = serial; 0 = one per core)",
    )


def workers_from_config(config) -> int:
    """The ``--workers`` value, defaulting to serial when unregistered."""
    try:
        return int(config.getoption("--workers"))
    except (ValueError, KeyError):
        return 1


def paper_config(**overrides) -> ExperimentConfig:
    merged = {"kernel_profile": kernel_profile_enabled(), **PAPER, **overrides}
    return ExperimentConfig(**merged)


def fig7_config(**overrides) -> ExperimentConfig:
    merged = {"kernel_profile": kernel_profile_enabled(), **FIG7, **overrides}
    return ExperimentConfig(**merged)
