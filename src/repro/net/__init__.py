"""Message-level transport layer for PROP deployments.

The inline engine (:class:`~repro.core.protocol.PROPEngine`) executes a
probe cycle as one callback; messages exist only as analytic tallies.
This package makes the message plane explicit:

* :mod:`repro.net.messages` — the typed protocol messages (``WALK``,
  ``VAR_PROBE``, ``VAR_REPLY``, ``EXCHANGE_PREPARE``,
  ``EXCHANGE_COMMIT``, ``EXCHANGE_ABORT``, ``NOTIFY``).
* :mod:`repro.net.transport` — the :class:`Transport` interface and the
  deterministic :class:`SimTransport` that delivers through the
  discrete-event simulator with latency ``d(u, v)`` from the oracle.
* :mod:`repro.net.faults` — :class:`FaultyTransport`, a decorator
  injecting seeded per-link loss, jitter, reordering, and
  named partitions.
* :mod:`repro.net.engine` — :class:`MessagePROPEngine`, the Section 3.2
  state machine run as actual request/response exchanges with
  per-message timeouts and a two-phase exchange commit.
"""

from repro.net.engine import MessagePROPEngine, NetConfig
from repro.net.faults import FaultyTransport, PartitionSpec
from repro.net.transport import SimTransport

__all__ = [
    "FaultyTransport",
    "MessagePROPEngine",
    "NetConfig",
    "PartitionSpec",
    "SimTransport",
]
