"""Exchange safety under arbitrary message faults.

The two-phase exchange commit claims the overlay can never be observed
half-exchanged, whatever the loss/delay/partition pattern.  These
properties drive PROP-G and PROP-O through up to a thousand delivered
messages at 30 % loss with jitter, reordering, and a transient
partition, and assert the invariants via a transport tap **after every
single delivered message**.

PROP-G (Theorem 2, positions swap, the graph does not):

* the logical edge set never changes;
* the embedding stays a permutation of the original hosts — no host
  duplicated or lost mid-swap;
* on Chord, every ring successor link ``(i, i+1 mod n)`` stays present.

PROP-O (neighbors trade, hosts stay):

* every slot keeps its degree — no half-applied trade;
* the embedding is untouched;
* no self-loop or duplicate edge appears;
* the overlay is still connected at the end (Theorem 1).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PROPConfig
from repro.net.engine import MessagePROPEngine
from repro.net.faults import FaultyTransport
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry
from repro.overlay.chord import ChordOverlay
from tests.properties.util import FakeOracle, random_connected_overlay

TARGET_DELIVERIES = 1000
MAX_SIM_TIME = 14400.0


def _edge_set(overlay):
    return frozenset(
        (min(u, w), max(u, w))
        for u in range(overlay.n_slots)
        for w in overlay.neighbor_list(u)
    )


def _prop_g_invariant(overlay):
    edges0 = _edge_set(overlay)
    hosts0 = sorted(overlay.embedding.tolist())

    def check(ov):
        assert _edge_set(ov) == edges0, "logical graph mutated"
        assert sorted(ov.embedding.tolist()) == hosts0, (
            "embedding is no longer a permutation: half-applied swap"
        )

    return check


def _prop_o_invariant(overlay):
    degrees0 = overlay.degree_sequence()
    emb0 = overlay.embedding.copy()

    def check(ov):
        assert np.array_equal(ov.degree_sequence(), degrees0), (
            "degree sequence changed: half-applied trade"
        )
        assert np.array_equal(ov.embedding, emb0), "PROP-O moved a host"
        edges = _edge_set(ov)
        assert all(u != w for u, w in edges), "self-loop"
        assert len(edges) == ov.n_edges, "duplicate edge"
        assert int(ov.degree_sequence().sum()) == 2 * ov.n_edges, (
            "one-sided adjacency entry"
        )

    return check


_INVARIANTS = {"G": _prop_g_invariant, "O": _prop_o_invariant}


def _drive_with_invariant_tap(overlay, seed, policy="G", extra_invariant=None):
    """Run ``policy`` over a heavily faulted transport, checking after
    every delivery; returns (engine, deliveries)."""
    invariant = _INVARIANTS[policy](overlay)
    sim = Simulator()
    rngs = RngRegistry(seed)
    delivered = [0]

    def tap(msg):
        delivered[0] += 1
        invariant(overlay)
        if extra_invariant is not None:
            extra_invariant(overlay)

    base = SimTransport(sim, overlay, tap=tap)
    faulty = FaultyTransport(
        base, rngs.stream("net:faults"),
        loss=0.3, jitter_ms=20.0, reorder_prob=0.2, reorder_ms=100.0,
    )
    half = overlay.n_slots // 2
    faulty.partition("a:b", frozenset(range(half)),
                     frozenset(range(half, overlay.n_slots)))
    sim.schedule(300.0, faulty.heal, "a:b")

    engine = MessagePROPEngine(
        overlay, PROPConfig(policy=policy), sim, rngs, faulty
    )
    engine.start()
    t = 0.0
    while delivered[0] < TARGET_DELIVERIES and t < MAX_SIM_TIME:
        t += 600.0
        sim.run_until(t)
    return engine, delivered[0]


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_faulted_prop_g_preserves_isomorphism_on_random_overlay(seed):
    overlay = random_connected_overlay(seed, n_min=16, n_max=32)
    engine, delivered = _drive_with_invariant_tap(overlay, seed)
    assert delivered >= TARGET_DELIVERIES
    # no orphaned participant lock: every remaining one can still self-heal
    assert all(p.timeout.pending for p in engine._prepared.values())


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_faulted_prop_g_preserves_chord_ring(seed):
    rng = np.random.default_rng(seed)
    oracle = FakeOracle(24, rng)
    overlay = ChordOverlay.build(oracle, rng)
    n = overlay.n_slots

    def ring_intact(ov):
        for i in range(n):
            assert ov.has_edge(i, (i + 1) % n), "ring successorship broken"

    engine, delivered = _drive_with_invariant_tap(
        overlay, seed, extra_invariant=ring_intact
    )
    assert delivered >= TARGET_DELIVERIES
    assert all(p.timeout.pending for p in engine._prepared.values())
    # the structural invariant also held at rest, not only mid-flight
    ring_intact(overlay)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_faulted_prop_o_preserves_degrees_and_connectivity(seed):
    overlay = random_connected_overlay(seed, n_min=16, n_max=32)
    engine, delivered = _drive_with_invariant_tap(overlay, seed, policy="O")
    assert delivered >= TARGET_DELIVERIES
    assert engine.counters.exchanges > 0  # trades were applied under faults
    assert overlay.is_connected()
    assert all(p.timeout.pending for p in engine._prepared.values())
