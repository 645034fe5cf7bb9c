"""Trace analysis: 2PC exchange timelines and protocol liveness flags.

:func:`reconstruct_timelines` folds a trace back into per-exchange
timelines — for every ``EXCHANGE_PREPARE`` the matching outcome
(``COMMIT`` / ``ABORT`` / ``TIMEOUT``) and the sim-time between the
two.  The protocol's safety story says each prepare resolves exactly
once; a prepare with no outcome (``half_open``) or with more than one
(``over_resolved``) is a protocol bug, and the analyzer is the tool
that finds it in a fault-injection run.

Liveness flags:

* **half-open exchanges** — PREPARE with no COMMIT/ABORT/TIMEOUT;
* **late replies** — a ``VAR_REPLY`` delivered for a cycle whose
  walk already timed out (the initiator discards it; frequent late
  replies mean ``reply_timeout`` is tuned too tight for the loss
  profile);
* **inline commits** — ``EXCHANGE_COMMIT`` with ``xid = -1`` from the
  non-message engines, listed separately (no prepare to match).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.events import (
    Event,
    ExchangeAbortEvent,
    ExchangeCommitEvent,
    ExchangePrepareEvent,
    ExchangeTimeoutEvent,
    MsgDeliverEvent,
    MsgTimeoutEvent,
    events_from_jsonl,
)

__all__ = [
    "ExchangeTimeline",
    "TraceAnalysis",
    "load_trace",
    "reconstruct_timelines",
    "render_timelines",
]


@dataclass(frozen=True)
class ExchangeTimeline:
    """One two-phase exchange from proposal to resolution."""

    xid: int
    u: int
    v: int
    var: float
    prepare_time: float
    outcome: str  # "commit" | "abort" | "timeout" | "half-open"
    outcome_time: float | None = None
    reason: str = ""

    @property
    def resolution_seconds(self) -> float | None:
        if self.outcome_time is None:
            return None
        return self.outcome_time - self.prepare_time


@dataclass
class TraceAnalysis:
    """Everything :func:`reconstruct_timelines` derives from one trace."""

    timelines: list[ExchangeTimeline] = field(default_factory=list)
    half_open: list[int] = field(default_factory=list)  # unresolved xids
    over_resolved: list[int] = field(default_factory=list)  # >1 outcome
    orphan_outcomes: list[int] = field(default_factory=list)  # outcome, no prepare
    late_replies: list[tuple[float, int, int]] = field(default_factory=list)
    inline_commits: int = 0

    @property
    def outcome_counts(self) -> dict[str, int]:
        counts = {"commit": 0, "abort": 0, "timeout": 0, "half-open": 0}
        for tl in self.timelines:
            counts[tl.outcome] += 1
        return counts

    @property
    def clean(self) -> bool:
        """True when every prepare resolved exactly once."""
        return not self.half_open and not self.over_resolved and not self.orphan_outcomes


def load_trace(path: str | Path) -> list[Event]:
    """Read a JSONL trace file back into typed events."""
    return events_from_jsonl(Path(path).read_text(encoding="utf-8"))


def reconstruct_timelines(events: Iterable[Event]) -> TraceAnalysis:
    """Fold a trace into per-exchange timelines (see module docs)."""
    analysis = TraceAnalysis()
    prepares: dict[int, ExchangePrepareEvent] = {}
    outcomes: dict[int, tuple[str, float, str]] = {}
    walk_timeouts: set[tuple[int, int]] = set()  # (origin u, cycle)

    for ev in events:
        if isinstance(ev, ExchangePrepareEvent):
            prepares[ev.xid] = ev
        elif isinstance(ev, ExchangeCommitEvent):
            if ev.xid < 0:
                analysis.inline_commits += 1
            else:
                _record_outcome(analysis, outcomes, ev.xid, "commit", ev.time, "")
        elif isinstance(ev, ExchangeAbortEvent):
            if ev.xid >= 0:  # xid=-1: no 2PC, so no timeline to close
                _record_outcome(analysis, outcomes, ev.xid, "abort", ev.time, ev.reason)
        elif isinstance(ev, ExchangeTimeoutEvent):
            if ev.xid >= 0:
                _record_outcome(analysis, outcomes, ev.xid, "timeout", ev.time, "")
        elif isinstance(ev, MsgTimeoutEvent):
            if ev.kind == "walk":
                walk_timeouts.add((ev.u, ev.tag))
        elif isinstance(ev, MsgDeliverEvent):
            if ev.mtype == "VAR_REPLY" and (ev.dst, ev.tag) in walk_timeouts:
                analysis.late_replies.append((ev.time, ev.dst, ev.tag))

    for xid in sorted(prepares):
        prep = prepares[xid]
        outcome = outcomes.get(xid)
        if outcome is None:
            analysis.half_open.append(xid)
            analysis.timelines.append(
                ExchangeTimeline(
                    xid=xid, u=prep.u, v=prep.v, var=prep.var,
                    prepare_time=prep.time, outcome="half-open",
                )
            )
            continue
        kind, at, reason = outcome
        analysis.timelines.append(
            ExchangeTimeline(
                xid=xid, u=prep.u, v=prep.v, var=prep.var,
                prepare_time=prep.time, outcome=kind, outcome_time=at,
                reason=reason,
            )
        )
    analysis.orphan_outcomes = sorted(set(outcomes) - set(prepares))
    return analysis


def _record_outcome(
    analysis: TraceAnalysis,
    outcomes: dict[int, tuple[str, float, str]],
    xid: int,
    kind: str,
    time: float,
    reason: str,
) -> None:
    if xid in outcomes:
        if xid not in analysis.over_resolved:
            analysis.over_resolved.append(xid)
        return
    outcomes[xid] = (kind, time, reason)


def render_timelines(analysis: TraceAnalysis, *, limit: int | None = 40) -> str:
    """Text rendering for ``python -m repro.obs timeline``."""
    lines: list[str] = []
    counts = analysis.outcome_counts
    total = len(analysis.timelines)
    lines.append(
        f"{total} two-phase exchanges: {counts['commit']} committed, "
        f"{counts['abort']} aborted, {counts['timeout']} timed out, "
        f"{counts['half-open']} half-open"
    )
    if analysis.inline_commits:
        lines.append(f"{analysis.inline_commits} inline commits (no 2PC, xid=-1)")
    if analysis.late_replies:
        lines.append(f"{len(analysis.late_replies)} late VAR_REPLYs "
                     "(walk already timed out)")
    if analysis.over_resolved:
        lines.append(f"PROTOCOL BUG: xids resolved twice: {analysis.over_resolved}")
    if analysis.orphan_outcomes:
        lines.append(f"PROTOCOL BUG: outcomes without prepare: {analysis.orphan_outcomes}")
    if analysis.half_open:
        lines.append(f"HALF-OPEN xids: {analysis.half_open}")
    shown: Sequence[ExchangeTimeline] = analysis.timelines
    if limit is not None and len(shown) > limit:
        lines.append(f"(showing first {limit} of {len(shown)} timelines)")
        shown = shown[:limit]
    if shown:
        header = (f"{'xid':>6} {'u':>5} {'v':>5} {'var':>10} "
                  f"{'prepared':>10} {'outcome':>9} {'resolved':>10} {'reason':<12}")
        lines += [header, "-" * len(header)]
        for tl in shown:
            resolved = f"{tl.outcome_time:.3f}" if tl.outcome_time is not None else "-"
            lines.append(
                f"{tl.xid:>6} {tl.u:>5} {tl.v:>5} {tl.var:>10.2f} "
                f"{tl.prepare_time:>10.3f} {tl.outcome:>9} {resolved:>10} "
                f"{tl.reason:<12}"
            )
    return "\n".join(lines)
