"""BENCHMARK.json, naming grammar, formulas, self time and verdicts."""

from __future__ import annotations

import pytest

from propbench.metrics import (
    DISPATCH_CATEGORIES,
    SPEC_PATH,
    Span,
    category_metric,
    classify,
    latency_ratio,
    load_spec,
    metric_name,
    probe_fail_share,
    probe_ok_share,
    quartile_spread,
    self_times,
)
from propbench.workloads import WORKLOADS
from repro.core.protocol import ProtocolCounters
from repro.net.engine import NetCounters
from repro.obs.prof import CATEGORIES

SPEC = load_spec()
REGISTRY = {m["name"]: m for m in (*SPEC["end_to_end"], *SPEC["per_layer"])}


# -- names -------------------------------------------------------------


def test_every_metric_name_is_valid_and_unique():
    names = [m["name"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])]
    assert len(names) == len(set(names))
    for name in names:
        assert metric_name(name) == name


@pytest.mark.parametrize(
    ("category", "suffix", "expected"),
    [
        ("timer:probe", "s", "dispatch.timer.probe_s"),
        ("deliver:VAR_PROBE", "s", "dispatch.deliver.VAR_PROBE_s"),
        ("deliver:EXCHANGE_COMMIT", "count", "dispatch.deliver.EXCHANGE_COMMIT_count"),
        ("event:other", "s", "dispatch.event.other_s"),
        ("churn", "s", "dispatch.churn_s"),
        ("untracked", "s", "dispatch.untracked_s"),
    ],
)
def test_kernel_categories_are_renamed_onto_the_grammar(category, suffix, expected):
    assert category_metric(category, suffix) == expected


@pytest.mark.parametrize("raw", ["", ":lead", "x" * 65, "-dash"])
def test_names_outside_the_grammar_are_rejected(raw):
    with pytest.raises(ValueError):
        metric_name(raw)


def test_odd_characters_map_to_dots():
    assert metric_name("a:b c/d") == "a.b.c.d"


def test_dispatch_categories_track_the_profiler_registry():
    assert set(DISPATCH_CATEGORIES) == set(CATEGORIES) - {"build", "sample", "untracked"}


# -- BENCHMARK.json ----------------------------------------------------


def test_benchmark_json_names_the_workloads_and_kernel_categories():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    for category in (*DISPATCH_CATEGORIES, "untracked"):
        assert per_layer[category_metric(category, "s")]["unit"] == "s"
    for category in DISPATCH_CATEGORIES:
        assert per_layer[category_metric(category, "count")]["unit"] == "count"


def test_benchmark_json_respects_its_limits():
    doc = load_spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(m["better"] in ("lower", "higher") for m in REGISTRY.values())
    assert len(SPEC_PATH.read_bytes()) <= 64 * 1024


# -- formulas ----------------------------------------------------------


def test_latency_ratio_is_final_over_initial():
    assert latency_ratio([200.0, 150.0, 120.0]) == pytest.approx(0.6)


def test_probe_shares_on_hand_built_counters():
    counters = ProtocolCounters(probes=200, exchanges=40)
    net = NetCounters(walk_timeouts=25, vote_timeouts=5, busy_rejects=9, prepare_retries=3)
    fail = probe_fail_share(counters.probes, net.walk_timeouts, net.vote_timeouts)
    assert fail == pytest.approx(0.15)
    ok = probe_ok_share(counters.probes, net.walk_timeouts, net.vote_timeouts)
    assert ok == pytest.approx(0.85)


def test_probe_shares_without_faults_or_probes():
    assert probe_fail_share(100, 0, 0) == 0.0
    assert probe_ok_share(100, 0, 0) == 1.0
    assert probe_fail_share(0, 0, 0) == 0.0


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, -1, "run", 0.0, 10.0),
        Span(1, 0, "setup", 0.0, 4.0),
        Span(2, 1, "oracle", 1.0, 3.0),
        Span(3, 0, "dispatch", 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 2.0, 2: 2.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)  # self times partition the root


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(0, -1, "p", 2.0, 10.0),
        Span(1, 0, "a", 3.0, 6.0),
        Span(2, 0, "b", 5.0, 7.0),  # overlaps a by 1 s
        Span(3, 0, "c", 9.0, 12.0),  # outlives the parent by 2 s
    ]
    assert self_times(spans)[0] == pytest.approx(8.0 - 4.0 - 1.0)


# -- regression verdicts -----------------------------------------------


@pytest.mark.parametrize("name", ["dispatch.events_per_s", "measure.lookups_per_s"])
def test_a_throughput_drop_is_a_regression(name):
    better = REGISTRY[name]["better"]
    assert better == "higher"
    assert classify(better, 3600.0, 1800.0, 0.1) == "regression"
    assert classify(better, 1800.0, 3600.0, 0.1) == "improved"


def test_lower_is_better_verdicts():
    assert classify("lower", 5.0, 6.0, 0.1) == "regression"
    assert classify("lower", 5.0, 4.0, 0.1) == "improved"
    assert classify("lower", 5.0, 5.2, 0.1) == "unchanged"
    assert classify("higher", 0.0, 0.0, 0.1) == "unchanged"
    with pytest.raises(ValueError):
        classify("neutral", 1.0, 1.0, 0.1)


def test_end_to_end_directions():
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    assert better == {
        "total_s": "lower", "setup_s": "lower", "run_s": "lower",
        "peak_rss_mb": "lower", "latency_ratio": "lower", "probe_ok_share": "higher",
    }
