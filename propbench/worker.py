"""One figure point in a fresh process: ``python -m propbench.worker
WORKLOAD SEED TRACED``.

Prints one JSON object: timings, the run's outputs (series and counts,
compared across runs by the parent), check failures and, when traced,
the span ledger, kernel profile and per-layer metrics.  ``total_s``,
``setup_s`` and ``run_s`` are wall seconds; the CPU seconds of the same
regions are kept beside them as ``cpu_s`` and ``setup_cpu_s`` (see
:func:`propbench.ledger.cpu_seconds`).  ``peak_rss_mb`` is the
process's ``ru_maxrss``, which is why every figure point gets its own
process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import uuid
from typing import Any

from repro.harness.experiment import ExperimentResult, run_experiment

from propbench.checks import SERIES, check_overlay, check_series
from propbench.ledger import COVERED_LAYERS, Recorder, cpu_seconds, layer_busy
from propbench.metrics import (
    DISPATCH_CATEGORIES,
    category_metric,
    latency_ratio,
    probe_fail_share,
    probe_ok_share,
)
from propbench.workloads import workload_config

__all__ = ["counts_of", "layer_metrics", "run_point"]


def counts_of(result: ExperimentResult, world: Any) -> dict[str, int]:
    """Deterministic per-seed counts of one run.  On the inline engine
    ``net.msgs_sent`` is the engine's modelled message count; the other
    ``net.*`` counts exist only on the message plane and read 0."""
    c = result.final_counters
    stats = result.net_stats
    net = result.net_counters
    queue = world.sim.queue
    return {
        "overlay.edges": world.overlay.n_edges,
        "dispatch.events": world.sim.events_executed,
        "dispatch.heap_pushes": queue.pushes,
        "dispatch.heap_cancels": queue.cancels,
        "protocol.probes": c.probes,
        "protocol.exchanges": c.exchanges,
        "protocol.retained_records": len(c.var_history) + len(c.exchange_log),
        "net.msgs_sent": stats.total_sent if stats is not None else c.total_messages,
        "net.bytes_sent": stats.bytes_sent if stats is not None else 0,
        "net.dropped": stats.total_dropped if stats is not None else 0,
        **{
            f"net.{field}": getattr(net, field) if net is not None else 0
            for field in (
                "walk_timeouts", "vote_timeouts", "prepare_retries",
                "busy_rejects", "stale_aborts",
            )
        },
    }


def layer_metrics(
    rec: Recorder, counts: dict[str, int], kernel: dict[str, Any], lookups_per_sample: int
) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but ``obs.traced_overhead``,
    which needs the untraced run too)."""
    busy = layer_busy(rec.spans)
    root = next(s for s in rec.spans if s.name == "run")
    total = root.end - root.start
    covered = sum(busy[layer] for layer in COVERED_LAYERS)
    out: dict[str, float] = dict(counts)
    probes = counts["protocol.probes"]
    out.update({
        "topology.build_s": busy["topology"],
        "oracle.build_s": busy["oracle"],
        "oracle.state_mb": rec.oracle_state_bytes / 2**20,
        "overlay.build_s": busy["overlay"],
        "dispatch.busy_s": busy["dispatch"],
        "dispatch.events_per_s": rec.events / busy["dispatch"],
        "protocol.success_share": counts["protocol.exchanges"] / probes if probes else 0.0,
        "protocol.probe_fail_share": probe_fail_share(
            probes, counts["net.walk_timeouts"], counts["net.vote_timeouts"]
        ),
        "net.msgs_per_probe": counts["net.msgs_sent"] / probes if probes else 0.0,
        "measure.lookups_s": busy["measure.lookups"],
        "measure.lookups_per_s": rec.samples * lookups_per_sample / busy["measure.lookups"],
        "measure.stretch_s": busy["measure.stretch"],
        "measure.samples": rec.samples,
        "setup.other_s": busy["setup.other"],
        "harness.other_s": busy["harness.other"],
        "obs.coverage": covered / total,
        "obs.uncovered_s": total - covered,
        "obs.spans": len(rec.spans),
    })
    # categories outside the benchmark's list (added to the profiler
    # later) are folded into event:other rather than dropped
    seconds = dict.fromkeys(DISPATCH_CATEGORIES, 0.0)
    events = dict.fromkeys(DISPATCH_CATEGORIES, 0)
    for category, ns in kernel["categories"].items():
        if category in ("build", "sample"):
            continue
        key = category if category in seconds else "event:other"
        seconds[key] += ns / 1e9
        events[key] += kernel["counts"].get(category, 0)
    for category in DISPATCH_CATEGORIES:
        out[category_metric(category, "s")] = seconds[category]
        out[category_metric(category, "count")] = events[category]
    out[category_metric("untracked", "s")] = kernel["untracked_ns"] / 1e9
    return out


def run_point(workload: str, seed: int, traced: bool) -> dict[str, Any]:
    config = workload_config(workload, seed)
    if traced:
        config = config.but(kernel_profile=True)
    rec = Recorder(traced)
    with rec.installed():
        started, cpu_started = time.perf_counter(), cpu_seconds()
        with rec.span("run"):
            result = run_experiment(config)
        total_s = time.perf_counter() - started
        cpu_s = cpu_seconds() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # everything below is outside the timed region
    world = rec.world
    assert config.prop is not None and rec.initial is not None
    series = {name: getattr(result, name).tolist() for name in SERIES}
    counts = counts_of(result, world)
    failures = check_overlay(config.prop.policy, rec.initial, world.overlay)
    failures += check_series(series)
    net = result.net_counters
    walk = net.walk_timeouts if net is not None else 0
    vote = net.vote_timeouts if net is not None else 0
    record: dict[str, Any] = {
        "seed": seed,
        "traced": traced,
        "total_s": total_s,
        "setup_s": rec.setup_s,
        "run_s": total_s - rec.setup_s,
        "cpu_s": cpu_s,
        "setup_cpu_s": rec.setup_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "latency_ratio": latency_ratio(series["lookup_latency"]),
        "probe_ok_share": probe_ok_share(counts["protocol.probes"], walk, vote),
        "outputs": {**series, **counts},
        "failures": failures,
    }
    if traced:
        if rec.events != counts["dispatch.events"]:
            failures.append(
                f"ledger counted {rec.events} dispatched events, "
                f"the simulator executed {counts['dispatch.events']}"
            )
        layers = layer_metrics(rec, counts, result.kernel_profile, config.lookups_per_sample)
        if layers["obs.coverage"] < 0.95:
            failures.append(f"layer busy times cover only {layers['obs.coverage']:.1%} of total_s")
        origin = rec.spans[-1].start  # the root span closes last
        record.update({
            "run_id": uuid.uuid4().hex[:12],
            "layers": layers,
            "spans": [
                [s.span_id, s.parent_id, s.name, s.start - origin, s.end - origin]
                for s in rec.spans
            ],
            "kernel_profile": result.kernel_profile,
        })
    return record


def main(argv: list[str]) -> int:
    workload, seed, traced = argv
    print(json.dumps(run_point(workload, int(seed), traced == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
