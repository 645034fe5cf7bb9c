"""Per-layer span ledger, recorded from outside the program.

:class:`Recorder` installs timing wrappers around the public entry point
of each layer for the duration of one figure point and keeps the spans
in memory.  The harness binds ``build_world``, ``build_preset``,
``build_oracle``, ``sample_lookup_latency`` and ``stretch_metric`` by
name inside :mod:`repro.harness.experiment`, so those wrappers are
installed there; wrapping the defining module would time nothing.
``GnutellaOverlay.build`` and ``Simulator.run_until`` are looked up on
their classes, so they are wrapped there.

Untraced runs install only the ``build_world`` wrapper, which times
set-up and keeps a reference to the world for the output checks.

Spans and the end-to-end times use wall time, like the kernel profiler,
so the ledger, the kernel profile and the headline figures share one
clock.  :func:`cpu_seconds` is recorded beside them to tell host steal
(wall time up, CPU time flat) from slower code.
"""

from __future__ import annotations

import functools
import itertools
import resource
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.harness import experiment
from repro.netsim.engine import Simulator
from repro.overlay.gnutella import GnutellaOverlay

from propbench.checks import OverlaySnapshot
from propbench.metrics import Span, self_times

__all__ = ["LAYER_OF_SPAN", "COVERED_LAYERS", "Recorder", "cpu_seconds", "layer_busy"]


def cpu_seconds() -> float:
    """CPU seconds (user + system) of this process, all threads, and of
    its waited-for children.  A diagnostic kept in the raw records: for
    the single-threaded simulation, wall time minus this is mostly time
    the host took the CPU away."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime

#: Span name -> ledger layer.  ``setup.other`` is ``build_world`` minus
#: its children (engine start, membership draw); ``harness.other`` is
#: ``run_experiment`` minus everything below it (the sampling loop's own
#: bookkeeping).
LAYER_OF_SPAN = {
    "run": "harness.other",
    "setup": "setup.other",
    "topology": "topology",
    "oracle": "oracle",
    "overlay": "overlay",
    "dispatch": "dispatch",
    "measure.lookups": "measure.lookups",
    "measure.stretch": "measure.stretch",
}

#: Layers whose busy time counts as attributed; the rest is the
#: uncovered residual the ledger reports.
COVERED_LAYERS = (
    "topology", "oracle", "overlay", "dispatch", "measure.lookups", "measure.stretch",
)


def layer_busy(spans: list[Span]) -> dict[str, float]:
    """Self seconds summed per layer (every layer present, 0 if unseen)."""
    busy = dict.fromkeys(LAYER_OF_SPAN.values(), 0.0)
    own = self_times(spans)
    for s in spans:
        busy[LAYER_OF_SPAN[s.name]] += own[s.span_id]
    return busy


class Recorder:
    """Wrappers, spans and layer counters for one figure point."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self.world: Any = None
        self.initial: OverlaySnapshot | None = None
        self.setup_s = 0.0  # wall seconds of build_world
        self.setup_cpu_s = 0.0
        self.events = 0
        self.samples = 0
        self.oracle_state_bytes = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.traced:
            yield
            return
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Install the wrappers; restore the originals on exit."""
        saved: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, new: Any) -> None:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        build_world = experiment.build_world

        def timed_build_world(config: Any) -> Any:
            with self.span("setup"):
                started, cpu_started = time.perf_counter(), cpu_seconds()
                world = build_world(config)
                self.setup_s = time.perf_counter() - started
                self.setup_cpu_s = cpu_seconds() - cpu_started
            # snapshot before any event runs (engine start only schedules)
            self.world = world
            self.initial = OverlaySnapshot.of(world.overlay)
            return world

        patch(experiment, "build_world", timed_build_world)
        if self.traced:
            build_oracle = experiment.build_oracle

            def timed_build_oracle(*args: Any, **kwargs: Any) -> Any:
                with self.span("oracle"):
                    oracle = build_oracle(*args, **kwargs)
                self.oracle_state_bytes = oracle.state_nbytes()
                return oracle

            run_until = Simulator.run_until

            def timed_run_until(sim: Simulator, t: float) -> int:
                with self.span("dispatch"):
                    executed = run_until(sim, t)
                self.events += executed
                return executed

            sample = experiment.sample_lookup_latency

            def timed_sample(world: Any) -> Any:
                with self.span("measure.lookups"):
                    out = sample(world)
                self.samples += 1
                return out

            overlay_build = GnutellaOverlay.build.__func__  # type: ignore[attr-defined]
            patch(experiment, "build_preset", self._timed("topology", experiment.build_preset))
            patch(experiment, "build_oracle", timed_build_oracle)
            patch(GnutellaOverlay, "build", classmethod(self._timed("overlay", overlay_build)))
            patch(Simulator, "run_until", timed_run_until)
            patch(experiment, "sample_lookup_latency", timed_sample)
            patch(
                experiment, "stretch_metric",
                self._timed("measure.stretch", experiment.stretch_metric),
            )
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
