"""Benchmark entry point.

    python3 propbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats the workload's figure point, each in a fresh worker process, for
about ``S`` seconds (at least :data:`MIN_REPEATS` times).  ``--seed N``
is the config's master seed, so every point of a run is the same world
and the same figure point.

* ``--trace 0``: untraced figure points; reports the median of each
  end-to-end metric over the points (the times in wall seconds;
  ``latency_ratio`` and ``probe_ok_share`` are exact per seed).
* ``--trace 1``: pairs of one untraced and one traced figure point, in
  alternating order; reports the median per-layer ledger of the traced
  points and ``obs.traced_overhead`` (traced over untraced ``total_s``).

Metric names and units come from ``BENCHMARK.json``.  Every point's
outputs are checked (see :mod:`propbench.checks`), and all points of a
run, traced or not, must produce identical series and counts; a point
that fails either check counts as failed.  A table
goes to stdout, then one JSON result object as the last line.  The raw
per-point record, with machine fingerprint, git revision and seed, is
written to ``propbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from propbench.checks import outputs_mismatch  # noqa: E402
from propbench.metrics import load_spec, quartile_spread  # noqa: E402

OUT_DIR = ROOT / "propbench" / "out"
#: Minimum figure points per untraced run, so that the median resists
#: one slow point (traced runs need one pair).
MIN_REPEATS = 3
#: Wall-clock ceiling for one invocation; no repeat starts that is
#: expected to end past it.
HARD_LIMIT_S = 165.0


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict[str, Any]:
    """One figure point in a fresh process; raises on any failure."""
    proc = subprocess.run(
        [sys.executable, "-m", "propbench.worker", workload, str(seed), "1" if traced else "0"],
        cwd=ROOT,
        env=_worker_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no record")
    return json.loads(lines[-1])


def fingerprint() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_rev() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git repo
    (the search stops at the checkout root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def collect(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[list[dict[str, Any]], list[str]]:
    """Run figure points of world ``seed`` until ``seconds`` are spent;
    returns the records that ran and the errors of those that did not."""
    started = time.perf_counter()
    plan = [False, True] if trace else [False]
    records: list[dict[str, Any]] = []
    errors: list[str] = []
    durations: list[float] = []
    attempts = 0
    min_attempts = 1 if trace else MIN_REPEATS
    while True:
        elapsed = time.perf_counter() - started
        estimate = statistics.median(durations) if durations else 0.0
        if attempts >= min_attempts and elapsed + estimate > seconds:
            break
        if elapsed + estimate > HARD_LIMIT_S:
            break
        attempts += 1
        # alternate which side of a traced pair runs first
        order = plan if attempts % 2 else plan[::-1]
        t0 = time.perf_counter()
        for traced in order:
            timeout = max(HARD_LIMIT_S - (time.perf_counter() - started), 1.0)
            try:
                records.append(run_worker(workload, seed, traced, timeout))
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                errors.append(f"traced={traced}: {exc}")
        durations.append(time.perf_counter() - t0)
    return records, errors


def _median(records: list[dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in records)


def summarize(
    records: list[dict[str, Any]], trace: bool, names: list[str]
) -> tuple[dict[str, float], int]:
    """(median of each end-to-end metric in ``names``, or the per-layer
    ledger, and the failed record count).  Records disagreeing with the
    first record, or carrying check failures, count as failed."""
    failed = 0
    for r in records:
        diff = outputs_mismatch(records[0]["outputs"], r["outputs"])
        if diff:
            r["failures"].append(f"outputs differ from the first point of this run: {diff}")
        failed += bool(r["failures"])
    untraced = [r for r in records if not r["traced"]]
    if not trace:
        return {name: _median(untraced, name) for name in names}, failed
    traced = [r for r in records if r["traced"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["obs.traced_overhead"] = _median(traced, "total_s") / _median(untraced, "total_s")
    return values, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from propbench.workloads import WORKLOADS  # imports the program: fails without it

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    records, errors = collect(args.workload, args.seed, args.seconds, trace)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if not records or (trace and {r["traced"] for r in records} != {False, True}):
        print("error: no complete figure point ran", file=sys.stderr)
        return 1
    registry = load_spec()["per_layer" if trace else "end_to_end"]
    values, failed = summarize(records, trace, [m["name"] for m in registry])
    failed += len(errors)
    attempted = len(records) + len(errors)

    missing = [m["name"] for m in registry if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in registry}

    run_id = uuid.uuid4().hex[:12]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    raw_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}.json"
    raw_path.write_text(json.dumps({
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "fingerprint": fingerprint(),
        "errors": errors,
        # spread of the untraced figure points within this run
        "point_spread": {
            name: quartile_spread([r[name] for r in records if not r["traced"]])
            for name in ("total_s", "setup_s", "run_s")
        } if sum(not r["traced"] for r in records) >= 2 else None,
        "records": records,
        "metrics": metrics,
    }, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} figure points, {failed} failed, raw record {raw_path.relative_to(ROOT)}")
    for r in records:
        for failure in r["failures"]:
            print(f"  FAILED check: {failure}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
