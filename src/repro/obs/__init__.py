"""repro.obs — structured event tracing, unified metrics, run reports.

Five layers, each usable alone:

* :mod:`repro.obs.events` / :mod:`repro.obs.trace` — the typed event
  schema and the :class:`Tracer` event bus the engines and transports
  emit into (``NullTracer`` when off: one attribute check, zero cost;
  ``streaming=True`` dispatches to subscribers and discards raw events);
* :mod:`repro.obs.live` / :mod:`repro.obs.monitor` — the active half:
  the windowed online event counter and the convergence detectors
  behind the CLI's ``--monitor`` progress line;
* :mod:`repro.obs.registry` — the unified :class:`MetricsRegistry`
  that absorbs the legacy ProtocolCounters / NetCounters /
  TransportStats surfaces into one namespace;
* :mod:`repro.obs.report` / :mod:`repro.obs.analyze` /
  :mod:`repro.obs.spans` — per-run :class:`RunReport` artifacts and the
  ``python -m repro.obs`` trace analyzers (2PC timelines, causal span
  trees, critical paths);
* :mod:`repro.obs.telemetry` — the live deployment plane's periodic
  JSONL snapshot exporter;
* :mod:`repro.obs.prof` — the kernel profiling plane:
  :class:`KernelProfiler` attributes wall-clock nanoseconds to a closed
  category registry at the simulator's dispatch point, exporting
  attribution tables, collapsed stacks and speedscope JSON (the one
  obs module sanctioned to read wall clocks);
* :mod:`repro.obs.bench_history` — append-only benchmark history and
  the ``bench-check`` regression gate.

This package never imports from the harness or the engines — they
import it.
"""

from repro.obs.analyze import reconstruct_timelines
from repro.obs.events import events_from_jsonl, events_to_jsonl
from repro.obs.prof import KernelProfile, KernelProfiler, diff_table, validate_speedscope
from repro.obs.registry import MetricsRegistry, registry_from_result
from repro.obs.report import (
    build_run_report,
    diff_reports,
    load_report,
    render_markdown,
    save_report,
)
from repro.obs.trace import NullTracer, Tracer

__all__ = [
    "KernelProfile",
    "KernelProfiler",
    "MetricsRegistry",
    "NullTracer",
    "Tracer",
    "build_run_report",
    "diff_reports",
    "diff_table",
    "events_from_jsonl",
    "events_to_jsonl",
    "load_report",
    "reconstruct_timelines",
    "registry_from_result",
    "render_markdown",
    "save_report",
    "validate_speedscope",
]
