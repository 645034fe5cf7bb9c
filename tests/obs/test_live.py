"""Streaming consumers: windowed aggregators and the streaming tracer.

The contract under test is byte-determinism across delivery modes: the
same seed must yield identical consumer aggregates whether events are
buffered and replayed, streamed live, or streamed inside a worker
process — and streaming must hold **no** raw events (the O(windows)
memory bound is the acceptance criterion for long runs).
"""

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import (
    ExperimentConfig,
    build_world,
    monitor_consumers,
    run_experiment,
)
from repro.harness.sweep import run_sweep
from repro.obs.events import ProbeEvent, VarCollectEvent
from repro.obs.live import WindowedCounts, replay
from repro.obs.trace import Tracer

TRACED = ExperimentConfig(
    seed=3,
    preset="ts-small",
    n_overlay=60,
    prop=PROPConfig(policy="G"),
    trace=True,
    duration=450.0,
    sample_interval=150.0,
    lookups_per_sample=20,
)


def _ev(t, cycle=0, var=1.0):
    return VarCollectEvent(time=t, u=1, v=2, cycle=cycle, var=var, policy="G")


class TestWindowing:
    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedCounts(0.0)

    def test_events_bucketed_by_sim_time(self):
        counts = WindowedCounts(10.0)
        for t in (0.0, 4.0, 9.99, 10.0, 25.0):
            counts.on_event(_ev(t))
        counts.finish(30.0)
        assert [(w.index, w.start, w.end) for w in counts.windows] == [
            (0, 0.0, 10.0),
            (1, 10.0, 20.0),
            (2, 20.0, 30.0),
        ]
        assert [w.value for w in counts.windows] == [
            {"VAR_COLLECT": 3},
            {"VAR_COLLECT": 1},
            {"VAR_COLLECT": 1},
        ]
        assert counts.totals() == {"VAR_COLLECT": 5}

    def test_empty_windows_are_skipped(self):
        counts = WindowedCounts(1.0)
        counts.on_event(_ev(0.5))
        counts.on_event(_ev(99.5))
        counts.finish(100.0)
        assert [w.index for w in counts.windows] == [0, 99]

    def test_out_of_order_event_raises(self):
        counts = WindowedCounts(10.0)
        counts.on_event(_ev(15.0))
        with pytest.raises(ValueError, match="nondecreasing"):
            counts.on_event(_ev(5.0))

    def test_finish_without_events_is_a_noop(self):
        counts = WindowedCounts(10.0)
        counts.finish(100.0)
        assert counts.windows == []


class TestStreamingTracer:
    def test_streaming_discards_events(self):
        tracer = Tracer(streaming=True, consumers=[WindowedCounts(10.0)])
        tracer.emit(ProbeEvent, u=0, s=1, cycle=0)
        assert len(tracer.events) == 0
        assert len(tracer) == 0

    def test_close_flushes_consumers_and_is_idempotent(self):
        counts = WindowedCounts(10.0)
        tracer = Tracer(streaming=True, consumers=[counts])
        tracer.emit(ProbeEvent, u=0, s=1, cycle=0)
        assert counts.windows == []  # window still open
        tracer.close(10.0)
        tracer.close(10.0)
        assert len(counts.windows) == 1

    def test_buffered_tracer_also_feeds_consumers(self):
        counts = WindowedCounts(10.0)
        tracer = Tracer(consumers=[counts])
        tracer.emit(ProbeEvent, u=0, s=1, cycle=0)
        assert len(tracer.events) == 1
        tracer.close(10.0)
        assert counts.totals() == {"PROBE": 1}


class TestStreamingEquivalence:
    """Same seed ⇒ identical aggregates across every delivery mode."""

    def test_streaming_matches_buffered_replay(self):
        buffered = run_experiment(TRACED)
        streaming = run_experiment(TRACED.but(trace=False, trace_streaming=True))
        assert streaming.trace is None
        replayed = monitor_consumers(TRACED.but(trace=False, trace_streaming=True))
        replay(buffered.trace, replayed, end_time=buffered.times[-1])
        live_counts, live_monitor = streaming.consumers[0], streaming.consumers[1]
        assert live_counts.windows == replayed[0].windows
        assert live_monitor.commits == replayed[1].commits
        assert live_monitor.efficacy.resolved == replayed[1].efficacy.resolved
        assert live_monitor.efficacy.effective == replayed[1].efficacy.effective
        assert live_monitor.thrash.thrashes == replayed[1].thrash.thrashes

    def test_serial_matches_workers(self):
        config = TRACED.but(trace=False, trace_streaming=True)
        serial = run_experiment(config)
        pooled = run_sweep({"run": config}, workers=2)["run"]
        assert serial.consumers[0].windows == pooled.consumers[0].windows
        serial_mon, pooled_mon = serial.consumers[1], pooled.consumers[1]
        assert serial_mon.commits == pooled_mon.commits
        assert serial_mon.samples == pooled_mon.samples
        assert serial_mon.status() == pooled_mon.status()


class TestBoundedMemory:
    def test_ts_large_hour_run_holds_no_raw_events(self):
        """Acceptance: ts-large n=1000, one simulated hour, streaming.

        The tracer must retain zero raw events and the consumers at most
        ``duration / window + 1`` sealed windows — O(windows), not
        O(events) (a buffered run of this workload holds ~34k events).
        """
        config = ExperimentConfig(
            preset="ts-large",
            n_overlay=1000,
            prop=PROPConfig(policy="G", nhops=2),
            trace_streaming=True,
            duration=3600.0,
            sample_interval=360.0,
            lookups_per_sample=1000,
        )
        world = build_world(config)
        assert world.tracer is not None and world.tracer.streaming
        max_windows = int(config.duration / config.sample_interval) + 1
        for t in range(0, int(config.duration) + 1, int(config.sample_interval)):
            world.sim.run_until(float(t))
            # peak retained state, checked *during* the run
            assert len(world.tracer.events) == 0
            for consumer in world.tracer.consumers:
                windows = getattr(consumer, "windows", None)
                if windows is not None:
                    assert len(windows) <= max_windows
        world.tracer.close(config.duration)
        counts = world.tracer.consumers[0]
        assert sum(counts.totals().values()) > 10_000  # events did flow
        assert len(counts.windows) <= max_windows
