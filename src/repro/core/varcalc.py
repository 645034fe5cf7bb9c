"""The Var gain test and PROP-O neighbor selection.

Equation (2) of the paper:

    Var =   sum_{i in N_t0(u)} d(u, i) + sum_{i in N_t0(v)} d(v, i)
          - sum_{i in N_t1(u)} d(u, i) - sum_{i in N_t1(v)} d(v, i)

i.e. the drop in the two peers' combined neighbor-latency sums if the
hypothetical exchange happened.  Section 4.2 shows ``Var > 0`` implies
the system-wide accumulated latency decreases, so the protocol accepts
exactly when ``Var > MIN_VAR`` (= 0).

For PROP-G the hypothetical exchange is a full position swap, evaluated
here by literally swapping the embedding, reading the sums, and swapping
back (pure O(deg) vectorized reads, no copies of the latency matrix).

For PROP-O the peers must *choose* which ``m`` neighbors to trade.  The
paper fixes equal counts but leaves the selection open; we use the
natural greedy rule: each side ranks its tradable neighbors by the gain
``d(self, x) - d(other, x)`` (latency saved by handing ``x`` over) and
the pair trades the top-k prefix, with k <= m chosen to maximize the
summed gain — handing over a neighbor with negative gain can never be
forced by the equal-count constraint because the k-th pair is dropped
whenever its combined gain is negative.

A trade chosen earlier may be applied later (the message plane's
two-phase commit): :func:`trade_legal` and :func:`trade_var` re-check a
given trade against the current graph and embedding.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.overlay.base import Overlay

__all__ = ["evaluate_prop_g", "select_prop_o", "trade_legal", "trade_var"]


def evaluate_prop_g(overlay: Overlay, u: int, v: int) -> float:
    """Var of a hypothetical PROP-G position swap between ``u`` and ``v``."""
    if u == v:
        raise ValueError("cannot evaluate a self-exchange")
    before = overlay.neighbor_latency_sum(u) + overlay.neighbor_latency_sum(v)
    overlay.swap_embedding(u, v)
    after = overlay.neighbor_latency_sum(u) + overlay.neighbor_latency_sum(v)
    overlay.swap_embedding(u, v)
    return before - after


def _tradable(overlay: Overlay, giver: int, taker: int, forbidden: Collection[int]) -> list[int]:
    """Neighbors of ``giver`` that may legally move to ``taker``.

    Excluded: the counterpart itself, nodes on the probe walk path
    (Theorem 1's connectivity guarantee), and current neighbors of the
    taker (the move would create a duplicate edge).
    """
    out: list[int] = []
    for x in overlay.neighbor_list(giver):
        if x == taker or x in forbidden:
            continue
        if overlay.has_edge(taker, x):
            continue
        out.append(x)
    return out


SELECTION_POLICIES = ("greedy", "farthest", "random")


def select_prop_o(
    overlay: Overlay,
    u: int,
    v: int,
    m: int,
    forbidden: Collection[int] = (),
    *,
    selection: str = "greedy",
    rng: np.random.Generator | None = None,
) -> tuple[list[int], list[int], float]:
    """Choose the PROP-O trade between ``u`` and ``v``.

    Returns ``(give_u, give_v, var)``: the (equal-length, possibly empty)
    neighbor lists each side hands over and the resulting Var.  The trade
    size is ``min(m, |tradable_u|, |tradable_v|)``, and a trade is only
    returned when its Var is positive.

    ``selection`` picks how each side ranks its tradable neighbors (the
    paper fixes equal counts but leaves the choice open; the ablation
    benchmark compares these):

    * ``"greedy"`` (default) — rank by the exchange gain
      ``d(self, x) − d(other, x)`` and keep the gain-maximizing prefix
      (optimal under the equal-count constraint).
    * ``"farthest"`` — each side offers its farthest-away neighbors (a
      plausible heuristic that ignores the counterpart's position).
    * ``"random"`` — uniformly random tradable neighbors (requires
      ``rng``); the null selection policy.
    """
    if u == v:
        raise ValueError("cannot evaluate a self-exchange")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if selection not in SELECTION_POLICIES:
        raise ValueError(f"selection must be one of {SELECTION_POLICIES}")
    if selection == "random" and rng is None:
        raise ValueError("random selection needs an rng")
    cand_u = _tradable(overlay, u, v, forbidden)
    cand_v = _tradable(overlay, v, u, forbidden)
    k_max = min(m, len(cand_u), len(cand_v))
    if k_max == 0:
        return [], [], 0.0

    emb = overlay.embedding
    oracle = overlay.oracle

    cu = np.asarray(cand_u, dtype=np.intp)
    cv = np.asarray(cand_v, dtype=np.intp)
    du_cu = oracle.to_many(int(emb[u]), emb[cu])
    dv_cu = oracle.to_many(int(emb[v]), emb[cu])
    dv_cv = oracle.to_many(int(emb[v]), emb[cv])
    du_cv = oracle.to_many(int(emb[u]), emb[cv])
    gain_u = du_cu - dv_cu
    gain_v = dv_cv - du_cv

    if selection == "greedy":
        order_u = np.argsort(gain_u)[::-1]
        order_v = np.argsort(gain_v)[::-1]
        # Pair the i-th best of each side; keep the prefix with positive
        # combined pair gain (optimal under the equal-count constraint).
        pair_gain = gain_u[order_u[:k_max]] + gain_v[order_v[:k_max]]
        cum = np.cumsum(pair_gain)
        k = int(np.argmax(cum)) + 1
        if cum[k - 1] <= 0.0:
            return [], [], 0.0
        give_u = [int(cu[i]) for i in order_u[:k]]
        give_v = [int(cv[i]) for i in order_v[:k]]
        return give_u, give_v, float(cum[k - 1])

    if selection == "farthest":
        order_u = np.argsort(du_cu)[::-1][:k_max]
        order_v = np.argsort(dv_cv)[::-1][:k_max]
    else:  # random
        order_u = rng.permutation(len(cu))[:k_max]
        order_v = rng.permutation(len(cv))[:k_max]
    var = float(gain_u[order_u].sum() + gain_v[order_v].sum())
    if var <= 0.0:
        return [], [], 0.0
    return [int(cu[i]) for i in order_u], [int(cv[i]) for i in order_v], var


def trade_legal(overlay: Overlay, u: int, v: int, give_u: Sequence[int],
                give_v: Sequence[int]) -> bool:
    """May this PROP-O trade still be applied to the current graph?

    Every handed-over neighbor must still be adjacent to its giver and
    not yet adjacent to its taker (no lost edge, no duplicate edge).
    """
    for x in give_u:
        if x == v or not overlay.has_edge(u, x) or overlay.has_edge(v, x):
            return False
    for y in give_v:
        if y == u or not overlay.has_edge(v, y) or overlay.has_edge(u, y):
            return False
    return True


def trade_var(overlay: Overlay, u: int, v: int, give_u: Sequence[int],
              give_v: Sequence[int]) -> float:
    """Var (eq. 2) of a given PROP-O trade on the current embedding."""
    emb = overlay.embedding
    oracle = overlay.oracle
    var = 0.0
    for x in give_u:
        var += oracle.between(int(emb[u]), int(emb[x])) - oracle.between(
            int(emb[v]), int(emb[x])
        )
    for y in give_v:
        var += oracle.between(int(emb[v]), int(emb[y])) - oracle.between(
            int(emb[u]), int(emb[y])
        )
    return var
