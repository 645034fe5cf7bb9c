"""The span ledger on hand-built spans and on a small real run."""

from __future__ import annotations

import pytest

from propbench.checks import SERIES, check_overlay
from propbench.ledger import COVERED_LAYERS, Recorder, layer_busy
from propbench.metrics import Span, load_spec
from propbench.worker import counts_of, layer_metrics
from repro.core.config import PROPConfig
from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.netsim.engine import Simulator
from repro.overlay.gnutella import GnutellaOverlay

SMALL = ExperimentConfig(
    preset="ts-small",
    n_overlay=60,
    prop=PROPConfig(policy="G"),
    duration=300.0,
    sample_interval=150.0,
    lookups_per_sample=20,
)


def test_layer_busy_sums_self_time_per_layer():
    spans = [
        Span(0, -1, "run", 0.0, 10.0),
        Span(1, 0, "setup", 0.0, 3.0),
        Span(2, 1, "oracle", 0.5, 2.5),
        Span(3, 0, "dispatch", 3.0, 5.0),
        Span(4, 0, "dispatch", 6.0, 8.0),
        Span(5, 0, "measure.lookups", 8.0, 9.5),
    ]
    busy = layer_busy(spans)
    assert busy["dispatch"] == pytest.approx(4.0)
    assert busy["oracle"] == pytest.approx(2.0)
    assert busy["setup.other"] == pytest.approx(1.0)
    assert busy["harness.other"] == pytest.approx(1.5)
    assert busy["topology"] == 0.0
    assert sum(busy[k] for k in COVERED_LAYERS) == pytest.approx(7.5)


def test_wrappers_are_installed_where_the_harness_looks_and_restored():
    originals = {
        name: experiment.__dict__[name]
        for name in ("build_world", "build_preset", "build_oracle",
                     "sample_lookup_latency", "stretch_metric")
    }
    run_until = Simulator.__dict__["run_until"]
    build = GnutellaOverlay.__dict__["build"]
    with Recorder(traced=True).installed():
        for name, fn in originals.items():
            assert experiment.__dict__[name] is not fn
        assert Simulator.__dict__["run_until"] is not run_until
        assert GnutellaOverlay.__dict__["build"] is not build
    for name, fn in originals.items():
        assert experiment.__dict__[name] is fn
    assert Simulator.__dict__["run_until"] is run_until
    assert GnutellaOverlay.__dict__["build"] is build


def _run(traced: bool):
    rec = Recorder(traced)
    with rec.installed(), rec.span("run"):
        result = run_experiment(SMALL.but(kernel_profile=traced))
    return rec, result


def test_traced_run_records_every_layer_and_matches_untraced_outputs():
    plain, plain_result = _run(traced=False)
    traced, traced_result = _run(traced=True)
    assert plain.spans == []
    names = {s.name for s in traced.spans}
    assert names == {"run", "setup", "topology", "oracle", "overlay",
                     "dispatch", "measure.lookups", "measure.stretch"}
    assert traced.events == traced.world.sim.events_executed
    assert traced.samples == 3
    busy = layer_busy(traced.spans)
    root = next(s for s in traced.spans if s.name == "run")
    assert sum(busy.values()) == pytest.approx(root.end - root.start)
    for name in SERIES:
        assert getattr(plain_result, name).tolist() == getattr(traced_result, name).tolist()
    assert counts_of(plain_result, plain.world) == counts_of(traced_result, traced.world)
    assert check_overlay("G", traced.initial, traced.world.overlay) == []


def test_the_ledger_produces_exactly_the_per_layer_metrics_of_benchmark_json():
    rec, result = _run(traced=True)
    counts = counts_of(result, rec.world)
    layers = layer_metrics(rec, counts, result.kernel_profile, SMALL.lookups_per_sample)
    # obs.traced_overhead needs the untraced twin; run.py adds it
    produced = {*layers, "obs.traced_overhead"}
    assert produced == {m["name"] for m in load_spec()["per_layer"]}
