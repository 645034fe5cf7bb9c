"""Metric naming grammar, formulas, self time and the regression verdict.

Every metric's name, unit, direction (``lower`` or ``higher`` is
better) and, for end-to-end metrics, bound live only in
``BENCHMARK.json`` at the repository root; :func:`load_spec` reads it.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "DISPATCH_CATEGORIES",
    "SPEC_PATH",
    "Span",
    "category_metric",
    "classify",
    "latency_ratio",
    "load_spec",
    "metric_name",
    "probe_fail_share",
    "probe_ok_share",
    "quartile_spread",
    "self_times",
]

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_BAD_CHARS = re.compile(r"[^A-Za-z0-9_.-]")


def metric_name(raw: str) -> str:
    """``raw`` mapped onto the name grammar: ``:`` and any other
    character outside ``[A-Za-z0-9_.-]`` become ``.``.  Raises when the
    result is still not a valid name (empty, too long, bad first char)."""
    name = _BAD_CHARS.sub(".", raw)
    if not _NAME.fullmatch(name):
        raise ValueError(f"{raw!r} does not map to a valid metric name ({name!r})")
    return name


def category_metric(category: str, suffix: str) -> str:
    """Per-layer metric name of a kernel-profile category, e.g.
    ``deliver:VAR_PROBE`` -> ``dispatch.deliver.VAR_PROBE_s``."""
    return metric_name(f"dispatch.{category}_{suffix}")


#: The kernel profiler's dispatch-loop categories (its closed registry
#: minus the ``build``/``sample`` harness stages, which the ledger times
#: as set-up and measurement).
DISPATCH_CATEGORIES: tuple[str, ...] = (
    "timer:probe",
    "timer:walk",
    "timer:vote",
    "timer:prepared",
    "timer:periodic",
    "timer:round",
    "churn",
    "deliver:WALK",
    "deliver:VAR_PROBE",
    "deliver:VAR_REPLY",
    "deliver:EXCHANGE_PREPARE",
    "deliver:EXCHANGE_COMMIT",
    "deliver:EXCHANGE_ABORT",
    "deliver:NOTIFY",
    "event:other",
)


def load_spec(path: Path = SPEC_PATH) -> dict[str, Any]:
    """``BENCHMARK.json``: the one source of the workload names and of
    every metric's name, unit, direction and bound."""
    return json.loads(path.read_text())


# -- formulas ----------------------------------------------------------


def latency_ratio(lookup_latency: Sequence[float]) -> float:
    """Final over initial mean lookup latency (< 1 means PROP helped)."""
    return float(lookup_latency[-1]) / float(lookup_latency[0])


def probe_fail_share(probes: int, walk_timeouts: int, vote_timeouts: int) -> float:
    """Share of probe cycles that ended in a timeout instead of a reply
    or verdict (0 when no probe ran)."""
    return (walk_timeouts + vote_timeouts) / probes if probes else 0.0


def probe_ok_share(probes: int, walk_timeouts: int, vote_timeouts: int) -> float:
    """Share of probe cycles that ended in a reply or verdict."""
    return 1.0 - probe_fail_share(probes, walk_timeouts, vote_timeouts)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- spans and self time -----------------------------------------------


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  # -1 for the root
    name: str
    start: float
    end: float


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children clipped to the parent, overlaps counted
    once)."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.span_id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.span_id] = (s.end - s.start) - _covered(clipped)
    return out


# -- regression verdict ------------------------------------------------


def classify(better: str, base: float, new: float, bound: float) -> str:
    """Verdict for ``new`` against ``base`` under direction ``better``:
    ``regression``/``improved`` when the metric moved the wrong/right
    way by more than ``bound`` (a share of ``base``), else ``unchanged``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    if base == 0:
        rel = 0.0 if new == 0 else float("inf") if new > 0 else float("-inf")
    else:
        rel = (new - base) / abs(base)
    worse = rel if better == "lower" else -rel
    if worse > bound:
        return "regression"
    if worse < -bound:
        return "improved"
    return "unchanged"
