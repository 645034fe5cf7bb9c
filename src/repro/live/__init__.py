"""repro.live — the asyncio deployment plane.

Everything below :mod:`repro.net` is transport-agnostic by design; this
package supplies the *real* backend: peers are UDP endpoints on an
asyncio event loop, protocol timers are wall-clock timers, and messages
are length-prefixed datagrams encoded by :mod:`repro.live.codec`.  The
same :class:`~repro.net.engine.MessagePROPEngine` state machine that
runs deterministically over :class:`~repro.net.transport.SimTransport`
runs here unchanged — the deployment plane swaps the clock and the wire,
never the protocol.

Module map:

* :mod:`repro.live.codec` — versioned length-prefixed wire format for
  every :mod:`repro.net.messages` dataclass;
* :mod:`repro.live.clock` — :class:`LiveScheduler`, the wall-clock
  drop-in for the :class:`~repro.netsim.engine.Simulator` scheduling
  vocabulary (``now`` / ``schedule`` / ``schedule_at``), with a
  ``speedup`` factor mapping protocol seconds onto wall seconds;
* :mod:`repro.live.node` — :class:`PeerNode`, one peer's datagram
  endpoint;
* :mod:`repro.live.lag` — :class:`LoopLagSampler`, the event-loop
  scheduling-lag probe feeding the telemetry snapshots;
* :mod:`repro.live.transport` — :class:`UdpTransport`, the
  :class:`~repro.net.transport.Transport` implementation over loopback
  UDP sockets;
* :mod:`repro.live.traffic` — :class:`TrafficGenerator`, sustained
  lookups/s against the live overlay;
* :mod:`repro.live.swarm` — :class:`Swarm`: spawn N peers, bootstrap
  membership from the topology presets, staged join/leave churn;
* :mod:`repro.live.runner` — :func:`run_live_experiment`, the
  harness-compatible entry point behind ``--transport udp``.

This package is the one place in ``src/repro`` sanctioned to read wall
clocks (reprolint rule D1 scopes its no-wall-clock invariant to exclude
``repro.live``); randomness remains seeded-stream-only everywhere.
"""

from repro.live.swarm import ChurnSchedule, Swarm

__all__ = [
    "ChurnSchedule",
    "Swarm",
]
