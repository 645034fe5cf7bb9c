"""Each output check fires on a deliberately broken overlay or series."""

from __future__ import annotations

import copy

import pytest

from propbench.checks import OverlaySnapshot, check_overlay, check_series, outputs_mismatch
from propbench.run import summarize
from repro.overlay.base import Overlay


class _Oracle:
    n = 8


def _ring(n: int = 8) -> Overlay:
    ov = Overlay(_Oracle(), range(n))
    for i in range(n):
        ov.add_edge(i, (i + 1) % n)
    ov.add_edge(0, 4)
    return ov


@pytest.mark.parametrize("policy", ["G", "O"])
def test_untouched_overlay_passes(policy):
    ov = _ring()
    initial = OverlaySnapshot.of(ov)
    ov.swap_embedding(1, 2)  # PROP-G's move: hosts trade slots
    assert check_overlay(policy, initial, ov) == []


def test_disconnected_overlay_fails_theorem_1():
    ov = _ring()
    initial = OverlaySnapshot.of(ov)
    ov.remove_edge(1, 2)
    ov.remove_edge(3, 4)
    failures = check_overlay("O", initial, ov)
    assert any("Theorem 1" in f for f in failures)


def test_prop_g_edge_change_fails_theorem_2():
    ov = _ring()
    initial = OverlaySnapshot.of(ov)
    # a degree-preserving swap: still connected, same degrees, new edges
    ov.rewire(1, 2, 1, 6)
    ov.rewire(5, 6, 5, 2)
    failures = check_overlay("G", initial, ov)
    assert len(failures) == 1 and "Theorem 2" in failures[0]
    assert check_overlay("O", initial, ov) == []  # PROP-O may do this


def test_prop_o_degree_change_fails():
    ov = _ring()
    initial = OverlaySnapshot.of(ov)
    ov.rewire(0, 4, 2, 6)
    failures = check_overlay("O", initial, ov)
    assert len(failures) == 1 and "degree sequence" in failures[0]


def test_non_finite_latency_sample_fails():
    assert check_series({"lookup_latency": [100.0, 90.0]}) == []
    assert check_series({"lookup_latency": [100.0, float("nan")]})
    assert check_series({"lookup_latency": [100.0, 0.0]})


def _record(traced: bool, lookups: list[float], seed: int = 0) -> dict:
    return {
        "seed": seed,
        "traced": traced,
        "latency_ratio": lookups[-1] / lookups[0],
        "probe_ok_share": 1.0,
        "total_s": 2.0 if traced else 1.0,
        "outputs": {"lookup_latency": lookups, "probes": [0, 10], "net.msgs_sent": 5},
        "failures": [],
        "layers": {"dispatch.busy_s": 0.5},
    }


def test_outputs_mismatch_names_the_differing_series():
    a = _record(False, [100.0, 90.0])["outputs"]
    b = copy.deepcopy(a)
    assert outputs_mismatch(a, b) == []
    b["lookup_latency"][1] = 90.000001
    b["net.msgs_sent"] = 6
    assert outputs_mismatch(a, b) == ["lookup_latency", "net.msgs_sent"]


def test_traced_run_disagreeing_with_untraced_counts_as_failed():
    same = [_record(False, [100.0, 90.0]), _record(True, [100.0, 90.0])]
    values, failed = summarize(same, trace=True, names=[])
    assert failed == 0
    assert values["obs.traced_overhead"] == pytest.approx(2.0)

    broken = [_record(False, [100.0, 90.0]), _record(True, [100.0, 91.0])]
    _, failed = summarize(broken, trace=True, names=[])
    assert failed == 1
    assert "lookup_latency" in broken[1]["failures"][0]


def test_untraced_points_are_checked_against_the_first_and_reported_as_medians():
    records = [_record(False, [100.0, 90.0]) for _ in range(3)]
    records[2]["outputs"]["probes"] = [0, 11]  # third point not reproducible
    for r, total in zip(records, (1.0, 3.0, 2.0)):
        r.update(total_s=total, setup_s=0.5, run_s=total - 0.5, peak_rss_mb=100.0)
    values, failed = summarize(records, trace=False, names=["total_s", "latency_ratio"])
    assert failed == 1
    assert "probes" in records[2]["failures"][0]
    assert values == {"total_s": 2.0, "latency_ratio": pytest.approx(0.9)}
