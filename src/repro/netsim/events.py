"""Event queue for the discrete-event engine.

A classic binary-heap agenda with three properties the protocol code
relies on:

* **Stable ordering** — heap entries are ``(time, seq, event)`` tuples
  and ``seq`` is a unique, monotone insertion counter, so events at the
  same timestamp fire in insertion order and tuple comparison never
  reaches the event itself.  Simulations are exactly reproducible.
* **O(log n) cancellation** — cancelling marks the event dead and the pop
  loop skips corpses; the PROP timer logic cancels and reschedules
  constantly, so cancellation must be cheap.
* **No payload restrictions** — an event is just a callback plus
  positional arguments.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["Event", "EventHandle", "EventQueue"]


class Event:
    """A scheduled callback.  Its heap entry, not the event itself,
    carries the ``(time, seq)`` ordering key."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., None],
                 args: tuple[Any, ...] = ()) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False


class EventHandle:
    """Opaque handle returned by :meth:`EventQueue.push`.

    Holding a handle lets the owner cancel the event or ask whether it is
    still pending.
    """

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: "EventQueue") -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def pending(self) -> bool:
        return not self._event.cancelled

    def cancel(self) -> bool:
        """Mark the event dead.  Returns ``True`` if it was still live."""
        if self._event.cancelled:
            return False
        self._event.cancelled = True
        self._queue._on_cancel()
        return True


class EventQueue:
    """Min-heap agenda of ``(time, seq, event)`` entries."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Cumulative telemetry counters (never reset; the profiling
        #: plane samples them per window and differences as needed).
        self.pushes = 0
        self.pops = 0
        self.cancels = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Physical heap length, corpses included (``heap_size - len``
        is the corpse count)."""
        return len(self._heap)

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < 0.0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        time = float(time)
        seq = self._seq
        ev = Event(time, callback, args)
        self._seq = seq + 1
        self._live += 1
        self.pushes += 1
        heappush(self._heap, (time, seq, ev))
        return EventHandle(ev, self)

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` when empty."""
        self._drop_dead()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises :class:`IndexError` when no live events remain.  The
        popped event is marked dead so a late ``cancel()`` through a
        retained handle is a no-op instead of corrupting the live count.
        """
        self._drop_dead()
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        ev = heappop(self._heap)[2]
        self._live -= 1
        self.pops += 1
        ev.cancelled = True
        return ev

    def clear(self) -> None:
        """Drop every queued event, marking each dead (as :meth:`pop`
        does) so a retained handle's ``cancel()`` stays a no-op."""
        for _, _, ev in self._heap:
            ev.cancelled = True
        self._heap.clear()
        self._live = 0

    def _on_cancel(self) -> None:
        self._live -= 1
        self.cancels += 1

    def _drop_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
