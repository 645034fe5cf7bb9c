"""FaultyTransport loss/partition injection and the PartitionSpec grammar."""

import numpy as np
import pytest

from repro.net.faults import FaultyTransport, PartitionSpec
from repro.net.messages import VarProbe
from repro.net.transport import SimTransport
from repro.netsim.engine import Simulator


def _faulty(overlay, **kwargs):
    sim = Simulator()
    inner = SimTransport(sim, overlay)
    rng = np.random.default_rng(42)
    return sim, FaultyTransport(inner, rng, **kwargs)


def _ping(i=0, j=1):
    return VarProbe(src=i, dst=j, cycle=1)


class TestLoss:
    def test_zero_loss_drops_nothing(self, gnutella):
        sim, tr = _faulty(gnutella, loss=0.0)
        for _ in range(50):
            tr.send(_ping())
        sim.run()
        assert tr.stats.total_dropped == 0
        assert tr.stats.total_delivered == 50

    def test_loss_rate_is_respected(self, gnutella):
        sim, tr = _faulty(gnutella, loss=0.5)
        for _ in range(400):
            tr.send(_ping())
        sim.run()
        dropped = tr.stats.dropped["VAR_PROBE"]
        assert 140 <= dropped <= 260  # ~Binomial(400, 0.5)
        assert tr.stats.drop_reasons["loss"] == dropped
        assert tr.stats.total_delivered + dropped == 400

    def test_loss_is_seed_deterministic(self, gnutella):
        outcomes = []
        for _ in range(2):
            sim, tr = _faulty(gnutella, loss=0.3)
            for _ in range(100):
                tr.send(_ping())
            sim.run()
            outcomes.append(tr.stats.total_dropped)
        assert outcomes[0] == outcomes[1]

    def test_per_link_loss_mapping_is_symmetric(self, gnutella):
        sim, tr = _faulty(gnutella, loss={(1, 0): 1.0 - 1e-12})
        tr.send(_ping(0, 1))  # looked up as (0,1) then (1,0)
        tr.send(_ping(2, 3))  # not in the map: lossless
        sim.run()
        assert tr.stats.total_dropped == 1
        assert tr.stats.total_delivered == 1

    def test_callable_loss(self, gnutella):
        sim, tr = _faulty(gnutella, loss=lambda s, d: 1.0 - 1e-12 if s == 0 else 0.0)
        tr.send(_ping(0, 1))
        tr.send(_ping(1, 0))
        sim.run()
        assert tr.stats.total_dropped == 1

    @pytest.mark.parametrize("loss", [
        1, 1.0, -0.1, 2, True, float("nan"), "0.1",
        {(0, 1): 1.5}, {(0, 1): 1}, {(0, 1): 0.1, (2, 3): -0.2},
    ])
    def test_out_of_range_loss_rejected_at_construction(self, gnutella, loss):
        """Regression: only a ``float`` loss used to be range-checked, so
        ``loss=1`` or a mapping entry of 1.5 silently dropped every
        message on those links."""
        with pytest.raises(ValueError, match="loss probability"):
            _faulty(gnutella, loss=loss)

    @pytest.mark.parametrize("loss", [0, 0.0, 0.999, np.float64(0.5),
                                      {}, {(0, 1): 0}, {(0, 1): 0.25}])
    def test_in_range_loss_accepted(self, gnutella, loss):
        _faulty(gnutella, loss=loss)

    def test_directed_mapping_entry_wins_over_mirror(self, gnutella):
        sim, tr = _faulty(gnutella, loss={(0, 1): 0.0, (1, 0): 1.0 - 1e-12})
        tr.send(_ping(0, 1))  # its own (0, 1) entry: lossless
        tr.send(_ping(1, 0))
        sim.run()
        assert tr.stats.total_dropped == 1
        assert tr.stats.total_delivered == 1

    def test_invalid_rates_rejected(self, gnutella):
        with pytest.raises(ValueError):
            _faulty(gnutella, loss=1.0)
        with pytest.raises(ValueError):
            _faulty(gnutella, jitter_ms=-1.0)
        with pytest.raises(ValueError):
            _faulty(gnutella, reorder_prob=1.5)


class TestDelayAndReorder:
    def test_extra_delay_shifts_delivery(self, gnutella):
        sim, tr = _faulty(gnutella)
        tr.register(1, lambda m: None)
        tr.send(_ping(), extra_delay_ms=500.0)
        sim.run()
        assert sim.now >= 0.5

    def test_reorder_can_overtake(self, gnutella):
        sim, tr = _faulty(gnutella, reorder_prob=0.5, reorder_ms=500.0)
        seen = []
        tr.register(1, lambda m: seen.append(m.cycle))
        for i in range(40):
            tr.send(VarProbe(src=0, dst=1, cycle=i))
        sim.run()
        assert sorted(seen) == list(range(40))
        assert seen != sorted(seen)  # at least one overtake at these rates


class TestPartitions:
    def test_partition_severs_both_directions(self, gnutella):
        sim, tr = _faulty(gnutella)
        tr.partition("a:b", {0, 1}, {2, 3})
        tr.send(_ping(0, 2))
        tr.send(_ping(3, 1))
        tr.send(_ping(0, 1))  # same side: unaffected
        sim.run()
        assert tr.stats.drop_reasons["partition"] == 2
        assert tr.stats.total_delivered == 1

    def test_heal_restores_links(self, gnutella):
        sim, tr = _faulty(gnutella)
        tr.partition("a:b", {0}, {1})
        tr.heal("a:b")
        tr.send(_ping(0, 1))
        sim.run()
        assert tr.stats.total_dropped == 0
        tr.heal("never-existed")  # no-op

    def test_overlapping_groups_rejected(self, gnutella):
        _, tr = _faulty(gnutella)
        with pytest.raises(ValueError):
            tr.partition("bad", {0, 1}, {1, 2})


class TestPartitionSpec:
    def test_parse_plain(self):
        spec = PartitionSpec.parse("east:west")
        assert spec.name == "east:west"
        assert spec.start is None and spec.end is None

    def test_parse_with_window(self):
        spec = PartitionSpec.parse("a:b@120-300")
        assert (spec.start, spec.end) == (120.0, 300.0)

    @pytest.mark.parametrize("bad", ["a", "a:", ":b", "a:b:c", "a:b@x-y", "a:b@300-120"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            PartitionSpec.parse(bad)

    def test_groups_are_contiguous_halves(self):
        a, b = PartitionSpec.parse("a:b").groups(10)
        assert a == frozenset(range(5))
        assert b == frozenset(range(5, 10))

    def test_install_with_window_schedules_and_heals(self, gnutella):
        sim, tr = _faulty(gnutella)
        PartitionSpec.parse("a:b@10-20").install(tr, sim, 64)
        assert tr.partitions == {}
        sim.run_until(15.0)
        assert "a:b" in tr.partitions
        sim.run_until(25.0)
        assert tr.partitions == {}

    def test_install_without_window_applies_now(self, gnutella):
        sim, tr = _faulty(gnutella)
        PartitionSpec.parse("a:b").install(tr, sim, 64)
        assert "a:b" in tr.partitions
