"""Benchmark history: append-only records and a noise-aware gate.

Every ``bench_*`` runner appends one schema-versioned JSON line to
``benchmarks/history.jsonl`` — bench id, config fingerprint, seed,
headline metrics, git revision, and a timestamp *passed in by the
caller* (wall clocks never run inside the sim; the bench harness, which
lives outside ``src/repro``, stamps its own records).  The file is the
bench trajectory across PRs that one-shot ``BENCH_*.json`` snapshots
cannot give.

``python -m repro.obs bench-check`` is the gate.  For each bench id it
takes the newest record as the candidate and compares every numeric
metric against the **trailing median** of the previous ``window``
records — a median, not the single previous value, so one noisy run
neither hides nor manufactures a regression.  Metrics are
lower-is-better (seconds, ratios, hop counts) unless the record names
them in its ``"higher"`` list (throughputs such as ``msgs_per_s``); a
metric whose relative change in its worse direction exceeds
``threshold`` is a regression and the command exits non-zero (1).
Missing or empty history exits 2 so CI can distinguish "no baseline
yet" from "regressed".
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "HISTORY_SCHEMA",
    "CheckResult",
    "append_record",
    "check_history",
    "current_git_rev",
    "history_record",
    "load_history",
    "render_check",
]

#: Schema tag stamped on every history line.
HISTORY_SCHEMA = "repro.bench-history/1"

#: Default history location, relative to the repo root.
DEFAULT_HISTORY = Path("benchmarks") / "history.jsonl"

#: Trailing-median window (records per bench) and regression threshold.
DEFAULT_WINDOW = 5
DEFAULT_THRESHOLD = 0.10


def current_git_rev(cwd: str | Path | None = None) -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def history_record(
    bench: str,
    *,
    fingerprint: str,
    seed: int,
    metrics: Mapping[str, float],
    git_rev: str,
    timestamp: float,
    higher: Iterable[str] = (),
) -> dict[str, Any]:
    """Build one history line.  ``timestamp`` is supplied by the caller.

    ``higher`` names the metrics where a larger value is better; every
    other metric is lower-is-better.
    """
    if not bench:
        raise ValueError("bench id must be non-empty")
    higher = sorted(set(higher))
    unknown = [name for name in higher if name not in metrics]
    if unknown:
        raise ValueError(f"higher-is-better names {unknown} are not metrics")
    clean: dict[str, float] = {}
    for name in sorted(metrics):
        value = float(metrics[name])
        clean[name] = value
    return {
        "schema_version": HISTORY_SCHEMA,
        "bench": str(bench),
        "fingerprint": str(fingerprint),
        "seed": int(seed),
        "metrics": clean,
        "higher": higher,
        "git_rev": str(git_rev),
        "timestamp": float(timestamp),
    }


def append_record(path: str | Path, record: Mapping[str, Any]) -> Path:
    """Append one record to the history file (created on first use)."""
    if record.get("schema_version") != HISTORY_SCHEMA:
        raise ValueError(
            f"record schema {record.get('schema_version')!r} != {HISTORY_SCHEMA!r}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return path


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """Read the history file, oldest first.  Missing file → empty list.

    Lines with an unrecognized ``schema_version`` are skipped (forward
    compatibility), malformed JSON raises — an append-only file should
    never be half-written.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed history line") from exc
        if record.get("schema_version") == HISTORY_SCHEMA:
            records.append(record)
    return records


@dataclass(frozen=True)
class CheckResult:
    """Verdict for one (bench, metric) pair."""

    bench: str
    metric: str
    current: float
    baseline: float | None
    rel_delta: float | None
    status: str  # "ok" | "improved" | "regression" | "no-baseline"


def check_history(
    records: Sequence[Mapping[str, Any]],
    *,
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[CheckResult]:
    """Gate the newest record of each bench against its trailing median.

    For every bench id the newest record is the candidate; each of its
    numeric metrics is compared to the median of that metric over the
    previous ``window`` records.  Lower is better unless the candidate
    names the metric in its ``"higher"`` list.  A relative change worse
    than ``threshold`` → ``"regression"``, better than ``threshold`` →
    ``"improved"``, otherwise ``"ok"``; metrics with no prior values
    report ``"no-baseline"``.  ``rel_delta`` is the signed relative
    change, whatever the direction.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    by_bench: dict[str, list[Mapping[str, Any]]] = {}
    for record in records:
        by_bench.setdefault(str(record["bench"]), []).append(record)

    results: list[CheckResult] = []
    for bench in sorted(by_bench):
        chain = by_bench[bench]
        candidate, baselines = chain[-1], chain[:-1]
        metrics = candidate.get("metrics", {})
        higher = set(candidate.get("higher", ()))
        for name in sorted(metrics):
            current = float(metrics[name])
            prior = [
                float(r["metrics"][name])
                for r in baselines
                if name in r.get("metrics", {})
            ][-window:]
            if not prior:
                results.append(
                    CheckResult(bench, name, current, None, None, "no-baseline")
                )
                continue
            base = median(prior)
            scale = abs(base) if base != 0 else 1.0
            rel = (current - base) / scale
            worse = -rel if name in higher else rel
            if worse > threshold:
                status = "regression"
            elif worse < -threshold:
                status = "improved"
            else:
                status = "ok"
            results.append(CheckResult(bench, name, current, base, rel, status))
    return results


def render_check(
    results: Iterable[CheckResult], *, threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Human-readable verdict table for :func:`check_history` output."""
    results = list(results)
    rows = [("bench", "metric", "current", "baseline", "delta", "status")]
    for r in results:
        rows.append(
            (
                r.bench,
                r.metric,
                f"{r.current:.6g}",
                "-" if r.baseline is None else f"{r.baseline:.6g}",
                "-" if r.rel_delta is None else f"{r.rel_delta:+.1%}",
                r.status,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    n_reg = sum(1 for r in results if r.status == "regression")
    verdict = (
        f"{n_reg} regression(s) above {threshold:.0%}"
        if n_reg
        else f"no regressions above {threshold:.0%}"
    )
    return "\n".join(lines) + "\n" + verdict
