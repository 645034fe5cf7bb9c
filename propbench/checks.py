"""Output checks run on every figure point, outside the timed region.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["SERIES", "OverlaySnapshot", "check_overlay", "check_series", "outputs_mismatch"]

#: Result series that must be identical between any two runs of one
#: seed, traced or not.
SERIES = ("lookup_latency", "probes", "exchanges", "messages")


@dataclass(frozen=True)
class OverlaySnapshot:
    """Slot edge set and degree sequence of an overlay at one instant."""

    edges: frozenset[tuple[int, int]]
    degrees: tuple[int, ...]

    @classmethod
    def of(cls, overlay: Any) -> "OverlaySnapshot":
        return cls(
            edges=frozenset(overlay.iter_edges()),
            degrees=tuple(int(d) for d in overlay.degree_sequence()),
        )


def check_overlay(policy: str, initial: OverlaySnapshot, overlay: Any) -> list[str]:
    """The paper's structural invariants on the final overlay.

    * Theorem 1: the overlay stays connected.
    * Theorem 2: PROP-G only swaps hosts between slots, so the slot edge
      set is unchanged.
    * PROP-O trades neighbors in equal numbers, so every slot keeps its
      degree.
    """
    failures = []
    if not overlay.is_connected():
        failures.append("final overlay is disconnected (Theorem 1)")
    final = OverlaySnapshot.of(overlay)
    if policy == "G" and final.edges != initial.edges:
        changed = len(final.edges ^ initial.edges)
        failures.append(f"PROP-G changed the slot edge set ({changed} edges differ, Theorem 2)")
    if policy == "O" and final.degrees != initial.degrees:
        changed = sum(a != b for a, b in zip(final.degrees, initial.degrees))
        changed += abs(len(final.degrees) - len(initial.degrees))
        failures.append(f"PROP-O changed the degree sequence ({changed} slots differ)")
    return failures


def check_series(series: Mapping[str, list[float]]) -> list[str]:
    """Sampled lookup latency must be finite and positive throughout."""
    bad = [x for x in series["lookup_latency"] if not (math.isfinite(x) and x > 0)]
    return [f"non-finite or non-positive lookup latency samples: {bad}"] if bad else []


def outputs_mismatch(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[str]:
    """Keys whose values differ between two runs' outputs (series and
    counts); any difference means the run was not reproducible."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
