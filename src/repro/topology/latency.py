"""Latency oracles over a physical network.

The overlay and the PROP protocol constantly ask "what is the IP-level
latency between hosts a and b?".  Every consumer goes through the
:class:`LatencyOracleBase` protocol — ``between`` / ``to_many`` /
``pairwise`` / ``rows`` / ``sum_to`` / ``mean_pairwise`` / ``n`` — so
the latency *source* is pluggable:

* :class:`LatencyOracle` (this module) — the exact backend.  Dijkstra
  from the member hosts keeps the n x n shortest-path submatrix among
  them: precise, but O(n^2) memory.
* :class:`~repro.topology.vivaldi.VivaldiOracle` — d-dimensional
  synthetic coordinates fitted by spring relaxation over O(n*k) sampled
  pairs: O(n*dim) memory, approximate.
* :class:`~repro.topology.landmark.LandmarkOracle` — exact distances to
  m landmark hosts, triangulation for the rest: O(n*m) memory.

Hot-path note (per the HPC guides: vectorize, use views): the exact
matrix is a dense float64 ndarray; all protocol-side queries are plain
fancy-indexed reads, and the Var computation reduces over row views
without copies.  The protocol methods are thin enough that the exact
backend's fast paths stay a single vectorized expression.
"""

from __future__ import annotations

import abc

import numpy as np
import numpy.typing as npt
from scipy.sparse import csgraph

from repro.topology.transit_stub import PhysicalNetwork

__all__ = ["LatencyOracle", "LatencyOracleBase", "validate_hosts"]

FloatArray = npt.NDArray[np.float64]


def validate_hosts(network: PhysicalNetwork, hosts: np.ndarray) -> np.ndarray:
    """Canonicalize and validate a member-host array against ``network``.

    Shared by every oracle backend's constructor.
    """
    hosts = np.asarray(hosts, dtype=np.int64)
    if hosts.ndim != 1 or hosts.size == 0:
        raise ValueError("hosts must be a non-empty 1-D array of host ids")
    if np.unique(hosts).size != hosts.size:
        raise ValueError("hosts must be unique")
    if int(hosts.min()) < 0 or int(hosts.max()) >= network.n:
        raise ValueError("host id out of range")
    return hosts


def shortest_path_rows(network: PhysicalNetwork, sources: np.ndarray) -> FloatArray:
    """Shortest-path latency from each of ``sources`` to every host.

    Returns a ``(len(sources), network.n)`` array.  The shared Dijkstra
    entry point of all backends; callers chunk ``sources`` when memory
    matters.
    """
    adj = network.adjacency()
    full = csgraph.dijkstra(adj, directed=False, indices=sources)
    return np.asarray(full, dtype=np.float64)


class LatencyOracleBase(abc.ABC):
    """Pairwise latency between a chosen subset of physical hosts.

    Works in *member index* space: member ``i`` is physical host
    ``hosts[i]``.  Subclasses implement :meth:`pairwise` (element-wise
    distances) and may override the derived methods with faster
    vectorized forms; every estimate must be symmetric, non-negative,
    finite, and zero on the diagonal.
    """

    #: Registry name of the backend ("exact", "vivaldi", "landmark").
    backend: str = "abstract"

    network: PhysicalNetwork
    hosts: np.ndarray

    @property
    def n(self) -> int:
        """Number of member hosts."""
        return int(self.hosts.size)

    # -- core ------------------------------------------------------------

    @abc.abstractmethod
    def pairwise(self, a: np.ndarray, b: np.ndarray) -> FloatArray:
        """Element-wise latencies ``d(a[k], b[k])`` for member arrays."""

    @abc.abstractmethod
    def state_nbytes(self) -> int:
        """Resident bytes of the backend's latency state (the scaling
        story: O(n^2) exact vs O(n*dim) coordinates vs O(n*m) landmark)."""

    # -- derived queries (override for speed) -----------------------------

    def between(self, i: int, j: int) -> float:
        """Latency (ms) between members ``i`` and ``j``."""
        a = np.asarray([i], dtype=np.intp)
        b = np.asarray([j], dtype=np.intp)
        return float(self.pairwise(a, b)[0])

    def to_many(self, i: int, others: np.ndarray | list[int]) -> FloatArray:
        """Vector of latencies from member ``i`` to each member in ``others``."""
        idx = np.asarray(others, dtype=np.intp)
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        return self.pairwise(np.full(idx.shape, i, dtype=np.intp), idx)

    def rows(self, idx: np.ndarray | list[int]) -> FloatArray:
        """Latency rows (length ``n``) for members ``idx``."""
        sel = np.asarray(idx, dtype=np.intp)
        everyone = np.arange(self.n, dtype=np.intp)
        out = np.empty((sel.size, self.n), dtype=np.float64)
        for r, i in enumerate(sel):
            out[r] = self.to_many(int(i), everyone)
        return out

    def sum_to(self, i: int, others: np.ndarray | list[int]) -> float:
        """Sum of latencies from member ``i`` to each member in ``others``.

        This is the protocol's core quantity  ``sum_{x in N} d(i, x)``.
        """
        if len(others) == 0:
            return 0.0
        return float(self.to_many(i, others).sum())

    def mean_pairwise(self) -> float:
        """Mean latency over all member pairs, diagonal included.

        Matches the paper's Average Latency definition
        ``AL = (sum_{i,j} d(i,j)) / n^2`` with ``d(i,i) = 0``.
        Computed in row chunks so approximate backends never materialize
        an n x n matrix.
        """
        n = self.n
        total = 0.0
        chunk = max(1, min(n, 4_194_304 // max(n, 1)))
        sel = np.arange(n, dtype=np.intp)
        for lo in range(0, n, chunk):
            total += float(self.rows(sel[lo:lo + chunk]).sum())
        return total / float(n * n)

    def dense(self) -> FloatArray:
        """Full n x n estimate matrix.  O(n^2) memory — tests and parity
        checks only, never the simulation hot path."""
        return self.rows(np.arange(self.n, dtype=np.intp))

    def mean_physical_link(self) -> float:
        """Mean latency of *physical* links — the stretch denominator."""
        return self.network.mean_link_latency()


class LatencyOracle(LatencyOracleBase):
    """Exact shortest-path oracle (dense Dijkstra submatrix).

    Parameters
    ----------
    network:
        The physical substrate.
    hosts:
        Physical host ids participating in the overlay.  The oracle works
        in *member index* space: member ``i`` is physical host
        ``hosts[i]``, and ``matrix[i, j]`` is the shortest-path latency in
        milliseconds between members ``i`` and ``j``.
    """

    backend = "exact"

    def __init__(self, network: PhysicalNetwork, hosts: np.ndarray) -> None:
        hosts = validate_hosts(network, hosts)
        self.network = network
        self.hosts = hosts
        full = shortest_path_rows(network, hosts)
        self.matrix: FloatArray = np.ascontiguousarray(full[:, hosts])
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("physical network is disconnected across selected hosts")
        np.fill_diagonal(self.matrix, 0.0)

    # -- protocol fast paths ----------------------------------------------

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> FloatArray:
        """Element-wise latencies ``d(a[k], b[k])``."""
        return self.matrix[a, b]

    def between(self, i: int, j: int) -> float:
        """Latency (ms) between members ``i`` and ``j``."""
        return float(self.matrix[i, j])

    def to_many(self, i: int, others: np.ndarray | list[int]) -> FloatArray:
        """Vector of latencies from member ``i`` to each member in ``others``."""
        return self.matrix[i, np.asarray(others, dtype=np.intp)]

    def rows(self, idx: np.ndarray | list[int]) -> FloatArray:
        """View of the latency rows for members ``idx``."""
        return self.matrix[np.asarray(idx, dtype=np.intp)]

    def sum_to(self, i: int, others: np.ndarray | list[int]) -> float:
        """Sum of latencies from member ``i`` to each member in ``others``."""
        if len(others) == 0:
            return 0.0
        return float(self.matrix[i, np.asarray(others, dtype=np.intp)].sum())

    def mean_pairwise(self) -> float:
        """Mean latency over all member pairs, diagonal included."""
        return float(self.matrix.mean())

    def dense(self) -> FloatArray:
        return self.matrix

    def state_nbytes(self) -> int:
        return int(self.matrix.nbytes)
