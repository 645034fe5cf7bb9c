"""Physical network substrate: GT-ITM-style transit-stub topologies.

The paper generates its physical Internet model with the GT-ITM tool
(Zegura et al., INFOCOM'96): a three-tier hierarchy of transit domains,
transit nodes, and stub domains, with per-tier link latencies.  This
package reimplements that construction (:mod:`~repro.topology.transit_stub`),
the two presets the paper evaluates on (:mod:`~repro.topology.presets`:
``ts-large`` and ``ts-small``), and pluggable latency oracles over the
result: the exact shortest-path backend (:mod:`~repro.topology.latency`),
Vivaldi synthetic coordinates (:mod:`~repro.topology.vivaldi`), and
landmark triangulation (:mod:`~repro.topology.landmark`), selected via
:func:`~repro.topology.factory.build_oracle`.
"""

from repro.topology.factory import ORACLE_BACKENDS, build_oracle
from repro.topology.latency import LatencyOracle
from repro.topology.presets import build_preset, ts_large, ts_small
from repro.topology.transit_stub import PhysicalNetwork, TransitStubParams, generate_transit_stub

__all__ = [
    "LatencyOracle",
    "ORACLE_BACKENDS",
    "PhysicalNetwork",
    "TransitStubParams",
    "build_oracle",
    "build_preset",
    "generate_transit_stub",
    "ts_large",
    "ts_small",
]
