"""Oracle backend registry and construction.

One seam for every consumer that needs a latency source — the harness,
the CLI and the benchmarks all resolve ``--oracle
{exact,vivaldi,landmark}`` through :func:`build_oracle`, so adding a
backend is one registry entry plus a class.

The Vivaldi fit draws from the named ``oracle:vivaldi`` stream derived
from the experiment's master seed (reprolint D2: every stochastic
component owns a named stream) — constructing the oracle can never
perturb membership, overlay, workload, or protocol draws.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.netsim.rng import derive_seed
from repro.topology.landmark import LandmarkOracle
from repro.topology.latency import LatencyOracle, LatencyOracleBase
from repro.topology.transit_stub import PhysicalNetwork
from repro.topology.vivaldi import VivaldiOracle

__all__ = ["ORACLE_BACKENDS", "VIVALDI_STREAM", "build_oracle"]

#: Selectable latency-oracle backends, in documentation order.
ORACLE_BACKENDS = ("exact", "vivaldi", "landmark")

#: Named RNG stream feeding the Vivaldi fit (reprolint D2).
VIVALDI_STREAM = "oracle:vivaldi"

#: Backend construction parameters and their defaults; anything else in
#: ``options`` is rejected so typos never silently fall back to defaults.
_OPTION_KEYS: dict[str, frozenset[str]] = {
    "exact": frozenset(),
    "vivaldi": frozenset({"dim", "neighbors", "holdout", "iterations", "step"}),
    "landmark": frozenset({"per_domain"}),
}


def _check_options(backend: str, options: Mapping[str, Any]) -> dict[str, Any]:
    allowed = _OPTION_KEYS[backend]
    unknown = sorted(set(options) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {backend!r} oracle option(s) {unknown}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    return dict(options)


def build_oracle(
    backend: str,
    network: PhysicalNetwork,
    hosts: np.ndarray,
    *,
    seed: int = 0,
    options: Mapping[str, Any] | None = None,
) -> LatencyOracleBase:
    """Construct the latency oracle for ``backend``.

    ``seed`` feeds only the Vivaldi fit (via its own named stream); the
    exact and landmark backends are RNG-free and ignore it.
    """
    if backend not in ORACLE_BACKENDS:
        raise ValueError(
            f"unknown oracle backend {backend!r}; choose from {ORACLE_BACKENDS}"
        )
    opts = _check_options(backend, options or {})
    if backend == "exact":
        return LatencyOracle(network, hosts)
    if backend == "vivaldi":
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, VIVALDI_STREAM)))
        return VivaldiOracle(network, hosts, rng, **opts)
    return LandmarkOracle(network, hosts, **opts)

