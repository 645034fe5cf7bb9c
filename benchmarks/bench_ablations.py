"""Ablations over the design choices DESIGN.md calls out.

* MIN_VAR — Section 4.2 sets it to 0 ("if Var > 0 then L_t0 > L_t1 …
  So in our simulation part, we will set MIN_VAR = 0"); raising it
  trades exchanges for convergence quality.
* Markov timer — versus a fixed-period probe timer at equal INIT_TIMER:
  the backoff saves probes at equal final quality.
* nhops beyond 2 — Section 5.2 argues nhop = 2 minimizes cost with full
  benefit; larger TTLs pay more walk messages for no extra gain.
"""

from benchmarks.common import paper_config, run_once
from repro.core.config import PROPConfig
from repro.harness.reporting import format_table
from repro.harness.sweep import run_sweep


def test_ablation_min_var(benchmark, emit, workers):
    configs = {
        f"MIN_VAR={mv}": paper_config(
            overlay_kind="gnutella",
            prop=PROPConfig(policy="G", min_var=mv),
            duration=2400.0,
        )
        for mv in (0.0, 100.0, 500.0, 2000.0)
    }
    results = run_once(
        benchmark, lambda: run_sweep(configs, measure_lookups=False, workers=workers)
    )

    rows = [
        [label, r.link_stretch[-1] / r.link_stretch[0], r.final_counters.exchanges]
        for label, r in results.items()
    ]
    emit(
        "Ablation  MIN_VAR acceptance threshold (PROP-G / Gnutella)\n\n"
        + format_table(["threshold", "stretch ratio", "exchanges"], rows)
    )

    # exchanges monotonically drop with the threshold; MIN_VAR = 0
    # converges at least as well as any higher threshold
    ex = [r.final_counters.exchanges for r in results.values()]
    assert all(a >= b for a, b in zip(ex, ex[1:]))
    ratios = [r.link_stretch[-1] / r.link_stretch[0] for r in results.values()]
    assert ratios[0] <= min(ratios) + 0.02


def test_ablation_markov_timer(benchmark, emit, workers):
    # max_timer_factor=2 caps the timer at one doubling (2I, served once,
    # then back to I): effectively a (nearly) fixed-rate prober.
    configs = {
        "Markov timer (2^5 cap)": paper_config(
            overlay_kind="gnutella",
            prop=PROPConfig(policy="G", max_timer_factor=32.0),
            duration=5400.0,
        ),
        "near-fixed timer (2^1 cap)": paper_config(
            overlay_kind="gnutella",
            prop=PROPConfig(policy="G", max_timer_factor=2.0),
            duration=5400.0,
        ),
    }
    results = run_once(
        benchmark, lambda: run_sweep(configs, measure_lookups=False, workers=workers)
    )

    rows = [
        [
            label,
            r.link_stretch[-1] / r.link_stretch[0],
            r.final_counters.probes,
            r.final_counters.total_messages,
        ]
        for label, r in results.items()
    ]
    emit(
        "Ablation  Markov-chain backoff vs near-fixed probe timer\n\n"
        + format_table(["timer policy", "stretch ratio", "probes", "messages"], rows)
    )

    markov = results["Markov timer (2^5 cap)"]
    fixed = results["near-fixed timer (2^1 cap)"]
    # equal-quality convergence with materially fewer probes
    assert markov.final_counters.probes < 0.8 * fixed.final_counters.probes
    assert (
        markov.link_stretch[-1] / markov.link_stretch[0]
        < fixed.link_stretch[-1] / fixed.link_stretch[0] + 0.05
    )


def test_ablation_nhops_cost_benefit(benchmark, emit, workers):
    configs = {
        f"nhops={h}": paper_config(
            overlay_kind="gnutella",
            prop=PROPConfig(policy="G", nhops=h),
            duration=2400.0,
        )
        for h in (2, 4, 6)
    }
    results = run_once(
        benchmark, lambda: run_sweep(configs, measure_lookups=False, workers=workers)
    )

    rows = [
        [
            label,
            r.link_stretch[-1] / r.link_stretch[0],
            r.final_counters.walk_messages,
        ]
        for label, r in results.items()
    ]
    emit(
        "Ablation  probe TTL cost/benefit (PROP-G / Gnutella)\n\n"
        + format_table(["TTL", "stretch ratio", "walk messages"], rows)
    )

    # bigger TTLs cost more walk messages...
    walks = [r.final_counters.walk_messages for r in results.values()]
    assert walks[0] < walks[1] < walks[2]
    # ...for no material stretch gain over nhops = 2
    ratios = [r.link_stretch[-1] / r.link_stretch[0] for r in results.values()]
    assert ratios[0] < min(ratios[1:]) + 0.05


def test_ablation_prop_o_selection_policy(benchmark, emit, workers):
    configs = {
        sel: paper_config(
            overlay_kind="gnutella",
            prop=PROPConfig(policy="O", m=3, selection=sel),
            duration=2400.0,
        )
        for sel in ("greedy", "farthest", "random")
    }
    results = run_once(
        benchmark, lambda: run_sweep(configs, measure_lookups=False, workers=workers)
    )

    rows = [
        [label, r.link_stretch[-1] / r.link_stretch[0], r.final_counters.exchanges]
        for label, r in results.items()
    ]
    emit(
        "Ablation  PROP-O neighbor-selection policy (m = 3)\n\n"
        + format_table(["selection", "stretch ratio", "exchanges"], rows)
    )

    ratios = {label: r.link_stretch[-1] / r.link_stretch[0] for label, r in results.items()}
    # the gain-ranked default converges at least as well as the heuristics
    assert ratios["greedy"] <= min(ratios.values()) + 0.03


def test_ablation_timed_vs_instantaneous_engine(benchmark, emit):
    """Fidelity ablation: do message latencies change the story?  The
    message plane (``transport="sim"``) delays every probe by its walk +
    collection time and re-checks Var when the participant votes (stale
    proposals abort); the converged quality should match the
    instantaneous abstraction the paper uses."""
    from repro.harness.experiment import run_experiment

    cfg = paper_config(
        overlay_kind="gnutella", prop=PROPConfig(policy="G"), duration=3600.0
    )
    configs = {"instantaneous": cfg, "message plane": cfg.but(transport="sim")}
    results = run_once(
        benchmark,
        lambda: {
            label: run_experiment(c, measure_lookups=False)
            for label, c in configs.items()
        },
    )

    rows = [
        [
            label,
            r.link_stretch[-1],
            r.final_counters.exchanges,
            r.net_counters.stale_aborts if r.net_counters is not None else 0,
        ]
        for label, r in results.items()
    ]
    emit(
        "Ablation  instantaneous vs message-plane engine (PROP-G / Gnutella)\n\n"
        + format_table(
            ["engine", "final link stretch", "exchanges", "stale aborts"], rows
        )
    )
    inst = results["instantaneous"].link_stretch[-1]
    timed = results["message plane"].link_stretch[-1]
    assert timed < 1.3 * inst  # same convergence story
