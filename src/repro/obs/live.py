"""Streaming trace consumers: the windowed online event counter.

The passive half of ``repro.obs`` buffers every event and analyzes the
trace post-mortem; this module is the active half's foundation.  A
:class:`~repro.obs.trace.TraceConsumer` subscribes to the tracer bus and
folds events into per-window aggregate state as they happen, so a
``streaming=True`` tracer retains O(windows) of memory instead of
O(events) — the property that makes hour-long n=1000 traced runs (and
bigger) affordable.

Windows are fixed sim-time buckets ``[k·width, (k+1)·width)``.  Events
arrive in nondecreasing simulation time (the simulator guarantees it;
the consumer enforces it), so a window can be sealed the moment the
first event of a later window arrives — there is never more than one
open window.  Empty windows are skipped: the ``windows`` list holds one
:class:`Window` per bucket that actually saw events, tagged with its
bucket index.

Aggregates are deliberately *deterministic* in the event stream: the
same run produces identical ``windows`` lists whether events were
streamed live or replayed from a buffered trace
(:func:`replay`), serially or from a worker process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.events import Event
from repro.obs.trace import TraceConsumer

__all__ = ["Window", "WindowedCounts", "replay"]


@dataclass(frozen=True)
class Window:
    """One sealed bucket: ``[start, end)`` with its ``{etype: count}``."""

    index: int
    start: float
    end: float
    value: dict[str, int]


class WindowedCounts:
    """Per-window event counts keyed by event type.

    Each sealed window's value is a ``{etype: count}`` dict (sorted
    keys, so two runs' windows compare field-for-field).  ``totals()``
    folds the sealed windows into whole-run counts.
    """

    def __init__(self, width: float) -> None:
        width = float(width)
        if width <= 0.0:
            raise ValueError(f"window width must be > 0, got {width}")
        self.width = width
        self.windows: list[Window] = []
        self._index: int | None = None
        self._counts: dict[str, int] = {}

    # -- TraceConsumer interface -----------------------------------------

    def on_event(self, event: Event) -> None:
        index = int(event.time // self.width)
        if self._index is None:
            self._index = index
        elif index > self._index:
            self._seal()
            self._index = index
        elif index < self._index:
            raise ValueError(
                f"event at t={event.time} arrived after window {self._index} "
                "opened; consumers require nondecreasing event times"
            )
        self._counts[event.etype] = self._counts.get(event.etype, 0) + 1

    def finish(self, end_time: float) -> None:
        self._seal()

    # -- window bookkeeping ----------------------------------------------

    def _seal(self) -> None:
        if self._index is None:
            return
        self.windows.append(
            Window(
                index=self._index,
                start=self._index * self.width,
                end=(self._index + 1) * self.width,
                value=dict(sorted(self._counts.items())),
            )
        )
        self._index = None
        self._counts = {}

    def totals(self) -> dict[str, int]:
        """Whole-run counts over the sealed windows."""
        out: dict[str, int] = {}
        for window in self.windows:
            for etype, count in window.value.items():
                out[etype] = out.get(etype, 0) + count
        return dict(sorted(out.items()))


def replay(
    events: Iterable[Event],
    consumers: Sequence[TraceConsumer],
    *,
    end_time: float | None = None,
) -> Sequence[TraceConsumer]:
    """Feed a buffered trace through ``consumers`` as if streamed live.

    The equivalence bridge between the two tracer modes: replaying a
    buffered run's events yields aggregates identical to a
    ``streaming=True`` run of the same seed.  ``end_time`` defaults to
    the last event's timestamp (0.0 for an empty trace).
    """
    last = 0.0
    for event in events:
        for consumer in consumers:
            consumer.on_event(event)
        last = event.time
    final = float(end_time) if end_time is not None else last
    for consumer in consumers:
        consumer.finish(final)
    return consumers
