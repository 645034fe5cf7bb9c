"""Landmark (triangulation) latency oracle.

The tiered exact mode for transit-stub presets: keep *exact* Dijkstra
distances from every member to ``m`` landmark hosts — chosen per
transit domain, so every backbone region is anchored — and estimate any
member pair by triangulation through the best landmark:

    d(i, j) ~= min_k ( d(L_k, i) + d(L_k, j) ).

On a transit-stub topology a cross-domain route necessarily crosses the
backbone; with landmarks in each transit domain some ``L_k`` sits on
(or next to) the true shortest path and the triangle estimate is exact
or near-exact for exactly the expensive pairs PROP cares about.
Same-domain pairs are overestimated (the detour through the landmark),
which is the backend's documented bias.

Resident state is the (m, n) landmark-distance matrix — O(n*m) with
``m << n`` — and construction runs Dijkstra from the m landmarks only,
never from all n members.

Landmark choice is deterministic (lowest-index transit hosts per
domain; index-spread fallback on flat substrates like Waxman), so the
backend needs no RNG at all: same network, same member set, same
estimates — serial or parallel.
"""

from __future__ import annotations

import numpy as np

from repro.topology.latency import (
    FloatArray,
    LatencyOracleBase,
    shortest_path_rows,
    validate_hosts,
)
from repro.topology.transit_stub import TIER_TRANSIT, PhysicalNetwork

__all__ = ["LandmarkOracle", "choose_landmarks"]


def choose_landmarks(network: PhysicalNetwork, per_domain: int) -> np.ndarray:
    """Deterministic landmark host ids: ``per_domain`` per transit domain.

    Transit hosts are grouped by their domain label and the
    lowest-indexed ``per_domain`` of each group are taken.  Substrates
    without a transit tier (e.g. Waxman) fall back to hosts spread
    evenly across the index space — the same count a one-domain
    transit-stub graph would get times eight, to compensate for the
    missing hierarchy.
    """
    if per_domain < 1:
        raise ValueError(f"per_domain must be >= 1, got {per_domain}")
    transit = np.flatnonzero(network.tier == TIER_TRANSIT)
    if transit.size == 0:
        count = min(network.n, per_domain * 8)
        spread = np.linspace(0, network.n - 1, num=count)
        return np.unique(spread.astype(np.int64))
    picked: list[np.ndarray] = []
    for dom in np.unique(network.domain[transit]):
        members = transit[network.domain[transit] == dom]
        picked.append(np.sort(members)[:per_domain])
    return np.concatenate(picked).astype(np.int64)


class LandmarkOracle(LatencyOracleBase):
    """Triangulated latency oracle over per-domain landmarks.

    Parameters
    ----------
    network, hosts:
        As for the exact oracle; estimates live in member index space.
    per_domain:
        Landmarks kept per transit domain (``m = per_domain * domains``).
    """

    backend = "landmark"

    def __init__(
        self,
        network: PhysicalNetwork,
        hosts: np.ndarray,
        *,
        per_domain: int = 4,
    ) -> None:
        hosts = validate_hosts(network, hosts)
        landmarks = choose_landmarks(network, per_domain)
        rows = shortest_path_rows(network, landmarks)
        landmark_matrix = np.ascontiguousarray(rows[:, hosts])
        if not np.all(np.isfinite(landmark_matrix)):
            raise ValueError("physical network is disconnected across selected hosts")
        if np.any(landmark_matrix < 0):
            raise ValueError("landmark distances must be non-negative")
        self.network = network
        self.hosts = hosts
        self.landmarks: np.ndarray = landmarks
        #: (m, n): exact distance from landmark k to member i.
        self.landmark_matrix: FloatArray = landmark_matrix

    @property
    def m(self) -> int:
        """Number of landmarks."""
        return int(self.landmarks.size)

    # -- protocol ---------------------------------------------------------

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> FloatArray:
        """Element-wise triangle estimates (0 when a==b)."""
        lm = self.landmark_matrix
        est = (lm[:, a] + lm[:, b]).min(axis=0)
        return np.where(np.asarray(a) == np.asarray(b), 0.0, est)

    def to_many(self, i: int, others: np.ndarray | list[int]) -> FloatArray:
        idx = np.asarray(others, dtype=np.intp)
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        lm = self.landmark_matrix
        est = (lm[:, idx] + lm[:, i][:, None]).min(axis=0)
        est[idx == i] = 0.0
        return est

    def state_nbytes(self) -> int:
        return int(self.landmark_matrix.nbytes + self.landmarks.nbytes)
