"""Churn: membership turnover.

The paper's dynamics experiments ("it is also adaptive to dynamic change
of peers") exercise node departures and arrivals.  We model churn as
*slot turnover*: a departing host is immediately replaced at its overlay
position by a fresh host drawn from the physical network's spare pool —
the composition of a leave and a join that inherits the leaver's logical
links (Gnutella neighbors handed over / DHT identifier reassigned).
This keeps the logical graph intact while randomizing the physical
placement, which is exactly the disturbance PROP must repair; the
protocol engine is notified so its churn rules (timer reset, queue-front
insertion, warm-up restart) fire.

The replacement simplification is recorded in DESIGN.md §5.  Structural
join/leave (zone takeover, finger repair) is not modelled: slot counts
are fixed at build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.netsim.engine import Simulator
from repro.obs.events import ChurnJoin, ChurnLeave
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.overlay.base import Overlay

__all__ = ["ChurnConfig", "ChurnProcess"]


@dataclass(frozen=True)
class ChurnConfig:
    """Poisson churn parameters.

    ``rate_per_node`` is the per-node turnover rate in events/second;
    the aggregate system churn rate is ``rate_per_node * n_slots``.
    ``start``/``stop`` bound the churn window (a *churn burst* in the
    adaptivity experiments is a finite window of elevated rate).
    """

    rate_per_node: float
    start: float = 0.0
    stop: float = float("inf")

    def __post_init__(self) -> None:
        if self.rate_per_node < 0:
            raise ValueError("rate_per_node must be >= 0")
        if self.stop < self.start:
            raise ValueError("stop must be >= start")


class ChurnProcess:
    """Poisson slot-turnover process bound to an overlay and a spare pool.

    Parameters
    ----------
    spare_hosts:
        Member-host indices *not* currently embedded in the overlay; the
        process swaps a random spare in for the departing host and
        returns the departed host to the pool.
    on_replace:
        Callback ``(slot) -> None`` fired after each replacement —
        typically :meth:`repro.core.protocol.PROPEngine.reset_slot`.
    tracer:
        Event sink for ``CHURN_LEAVE`` / ``CHURN_JOIN`` records.
    """

    def __init__(
        self,
        overlay: Overlay,
        config: ChurnConfig,
        sim: Simulator,
        rng: np.random.Generator,
        spare_hosts: list[int] | np.ndarray,
        on_replace: Callable[[int], None] | None = None,
        *,
        tracer: TracerLike | None = None,
    ) -> None:
        self.overlay = overlay
        self.config = config
        self.sim = sim
        self.rng = rng
        self.spare = list(int(h) for h in spare_hosts)
        used = set(int(h) for h in overlay.embedding)
        for h in self.spare:
            if h in used:
                raise ValueError(f"spare host {h} is already embedded")
        self.on_replace = on_replace
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        self.events = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("churn process already started")
        self._started = True
        if self.config.rate_per_node <= 0 or not self.spare:
            return
        self._schedule_next()

    def _aggregate_rate(self) -> float:
        return self.config.rate_per_node * self.overlay.n_slots

    def _schedule_next(self) -> None:
        gap = float(self.rng.exponential(1.0 / self._aggregate_rate()))
        t = max(self.sim.now, self.config.start) + gap
        if t > self.config.stop:
            return
        self.sim.schedule_at(t, self._churn_event)

    def _churn_event(self) -> None:
        if self.spare:
            self.replace_random_slot()
        self._schedule_next()

    def replace_random_slot(self) -> int:
        """Swap a random slot's host for a random spare.  Returns the slot."""
        if not self.spare:
            raise RuntimeError("no spare hosts left")
        slot = int(self.rng.integers(0, self.overlay.n_slots))
        i = int(self.rng.integers(0, len(self.spare)))
        newcomer = self.spare[i]
        departed = self.overlay.replace_host(slot, newcomer)
        self.spare[i] = departed
        self.events += 1
        if self.tracer.enabled:
            self.tracer.emit(ChurnLeave, slot=slot, host=int(departed))
            self.tracer.emit(ChurnJoin, slot=slot, host=int(newcomer))
        if self.on_replace is not None:
            self.on_replace(slot)
        return slot
