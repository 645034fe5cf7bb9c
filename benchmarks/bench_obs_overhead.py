"""Tracing overhead benchmark (``make bench-obs``).

Measures the Fig. 5(a) Gnutella workload (paper scale: ts-large,
n = 1000, one simulated hour of PROP-G with nhops = 2) in three arms:

* **untraced** — ``trace=False``: every instrumentation site resolves to
  the shared :class:`~repro.obs.trace.NullTracer` and pays exactly one
  attribute check.  This is the default for every figure benchmark, so
  its cost is the PR's perpetual tax and must stay within 5% of the
  pre-instrumentation baseline.
* **traced** — ``trace=True``: full event collection, reported so the
  cost of turning tracing on is a recorded number rather than folklore.
* the per-run event count, for tokens/second style context.

A second off/on triple measures **span tracing** on the message plane
(spans only exist there — the inline engines have no messages to
bracket): the same Section 5.1 world at n = 300 through
``SimTransport``, untraced vs fully traced.  The traced arm carries the
span events' full cost — roughly two extra events per message — so the
ratio is the price of causal tracing, and the untraced arm pins the
price of *not* tracing (context stamping resolves to enabled-checks)
under the same bench gate.

Each arm is the best of ``REPEATS`` runs (best-of is the standard way to
strip scheduler noise from a deterministic workload).  Results land in
``BENCH_obs.json`` at the repo root — the repo's first benchmark
trajectory artifact; later PRs append comparable entries.

Run directly (``python benchmarks/bench_obs_overhead.py``) or through
``make bench-obs``.  Not a pytest-benchmark module on purpose: it writes
an artifact, it does not assert.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment

REPEATS = 3

#: Fig. 5(a) shape: Gnutella overlay, PROP-G, nhops = 2 (the paper's
#: headline curve), Section 5.1 world.  Lookup measurement is off so the
#: timed region is the protocol + simulator hot path the tracer
#: instruments, not the Dijkstra sampling around it.
FIG5_WORKLOAD = ExperimentConfig(
    preset="ts-large",
    n_overlay=1000,
    overlay_kind="gnutella",
    prop=PROPConfig(policy="G", nhops=2),
    duration=3600.0,
    sample_interval=360.0,
    lookups_per_sample=1000,
)

#: Span-tracing arm: the same world through the message plane, scaled to
#: n = 300 so best-of-3 on both arms stays under half a minute (the
#: traced arm records every message flight and handler as a span pair).
SPAN_WORKLOAD = FIG5_WORKLOAD.but(
    n_overlay=300,
    transport="sim",
    duration=1800.0,
)


def _best_of(config: ExperimentConfig, repeats: int = REPEATS) -> tuple[float, int]:
    """(best wall seconds, events recorded) over ``repeats`` runs."""
    best = float("inf")
    n_events = 0
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_experiment(config, measure_lookups=False)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        n_events = len(result.trace) if result.trace is not None else 0
    return best, n_events


def main(out_path: str | Path = Path(__file__).resolve().parents[1] / "BENCH_obs.json") -> dict:
    from common import record_history
    from repro.obs.bench_history import current_git_rev

    untraced_s, _ = _best_of(FIG5_WORKLOAD)
    traced_s, n_events = _best_of(FIG5_WORKLOAD.but(trace=True))
    span_off_s, _ = _best_of(SPAN_WORKLOAD)
    span_on_s, span_events = _best_of(SPAN_WORKLOAD.but(trace=True))
    payload = {
        "schema_version": "repro.bench-obs/3",
        "benchmark": "obs-overhead/fig5a-gnutella",
        "workload": {
            "preset": FIG5_WORKLOAD.preset,
            "n_overlay": FIG5_WORKLOAD.n_overlay,
            "policy": "G",
            "nhops": 2,
            "duration_s": FIG5_WORKLOAD.duration,
        },
        "repeats": REPEATS,
        "untraced_seconds": round(untraced_s, 4),
        "traced_seconds": round(traced_s, 4),
        "tracing_overhead_ratio": round(traced_s / untraced_s, 4),
        "events_recorded": n_events,
        "events_per_traced_second": round(n_events / traced_s, 1),
        "span_workload": {
            "n_overlay": SPAN_WORKLOAD.n_overlay,
            "transport": SPAN_WORKLOAD.transport,
            "duration_s": SPAN_WORKLOAD.duration,
        },
        "span_untraced_seconds": round(span_off_s, 4),
        "span_traced_seconds": round(span_on_s, 4),
        "span_overhead_ratio": round(span_on_s / span_off_s, 4),
        "span_events_recorded": span_events,
        "python": platform.python_version(),
        "git_rev": current_git_rev(Path(__file__).resolve().parent),
    }
    out_path = Path(out_path)
    out_path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    record_history(
        payload["benchmark"],
        {
            "untraced_seconds": payload["untraced_seconds"],
            "traced_seconds": payload["traced_seconds"],
            "tracing_overhead_ratio": payload["tracing_overhead_ratio"],
        },
        config=FIG5_WORKLOAD,
    )
    record_history(
        "obs-overhead/spans-msg-plane",
        {
            "untraced_seconds": payload["span_untraced_seconds"],
            "traced_seconds": payload["span_traced_seconds"],
            "span_overhead_ratio": payload["span_overhead_ratio"],
        },
        config=SPAN_WORKLOAD,
    )
    print(json.dumps(payload, indent=1))
    print(f"wrote {out_path}")
    return payload


if __name__ == "__main__":
    main()
