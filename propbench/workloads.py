"""The benchmark's workloads: complete ``run_experiment`` figure points.

Each workload is a batch figure point at n = 1000 peers and a fixed
simulated duration, so the work per run is fixed and wall time is the
throughput measure.  The benchmark's ``--seed`` is the config's master
seed, so one seed is one world; the program receives only the config.

The Fig. 5(a) point runs the full simulated hour.  ``propo-faults`` runs
900 simulated seconds instead of Fig. 7's 1800 so that one run of a
minute holds about seven figure points (their median resists slow
repeats on a shared host).  It still covers PROP's 600 s warm-up, where
most probe traffic happens, and part of maintenance; its layer mix stays
close to the full point's (dispatch about 65%, sampler 25%, set-up 10%).

Fig. 5(a) over the message plane is not a workload: on a shared 2-vCPU
host its per-seed medians spread by 0.20-0.40 of their median, past the
largest bound the benchmark may set.  ``propo-faults`` runs over the
same message plane, so every layer is still measured.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig
from repro.workloads.churn import ChurnConfig

__all__ = ["WORKLOADS", "workload_config"]

#: Section 5.1 world of the Fig. 5(a) headline: ts-large, n = 1000,
#: Gnutella, PROP-G with nhops = 2, one simulated hour.
_FIG5A = dict(
    preset="ts-large",
    n_overlay=1000,
    overlay_kind="gnutella",
    prop=PROPConfig(policy="G", nhops=2),
    duration=3600.0,
    lookups_per_sample=1000,
)

#: Section 5.3 heterogeneous world of Fig. 7: bimodal 1/100 ms
#: processing delay, fast hosts attract 8x the surplus edges (the
#: hub-dominated Gnutella degree shape PROP-O relies on), min degree 3,
#: TTL-7 floods with requery.
_FIG7 = dict(
    preset="ts-large",
    n_overlay=1000,
    heterogeneous=True,
    fast_fraction=0.5,
    fast_ms=1.0,
    slow_ms=100.0,
    fast_degree_weight=8.0,
    flood_ttl=7,
    overlay_options={"min_degree": 3, "mean_extra_degree": 3.0},
)


def _fig5a(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, sample_interval=360.0, **_FIG5A)


def _propo_faults(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed,
        prop=PROPConfig(policy="O"),
        transport="sim",
        loss=0.05,
        churn=ChurnConfig(rate_per_node=1.0 / 3600.0),
        n_spare=100,
        duration=900.0,
        sample_interval=450.0,
        lookups_per_sample=600,
        **_FIG7,
    )


#: Workload name -> figure-point config under a seed.  Why each one is
#: in the benchmark is stated in ``BENCHMARK.json``.
WORKLOADS: dict[str, Callable[[int], ExperimentConfig]] = {
    "fig5a-inline": _fig5a,
    "propo-faults": _propo_faults,
}


def workload_config(name: str, seed: int) -> ExperimentConfig:
    """The figure-point config of workload ``name`` under ``seed``."""
    try:
        build = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return build(seed)
