"""Discrete-event simulation substrate.

The paper evaluates PROP with a custom event-driven simulator on top of
GT-ITM topologies.  This package provides the equivalent substrate: a
deterministic event queue (:mod:`repro.netsim.events`), a simulation
engine with timers and periodic processes (:mod:`repro.netsim.engine`),
and named, reproducible random substreams (:mod:`repro.netsim.rng`).

All simulation time is in **seconds** (float).  Determinism contract:
given the same master seed and the same schedule of calls, a simulation
replays exactly — ties in event time are broken by insertion order.
"""

from repro.netsim.engine import Simulator
from repro.netsim.rng import RngRegistry

__all__ = [
    "RngRegistry",
    "Simulator",
]
