"""Kernel cost observatory: the wall-clock profiling plane.

The simulation core is wall-clock-free by design (reprolint D1): sim
time is the only time protocol code may observe.  Knowing where the
*real* seconds go — timer firing, message dispatch, Var collection,
heap churn, metric sampling — is an observability concern, so the
profiling plane lives here and is sanctioned explicitly in reprolint's
``WALLCLOCK_ALLOW`` (deterministic by *exclusion*: nothing in this
module feeds back into protocol state, so wall-clock reads here cannot
perturb a run).

Design mirrors the Tracer's zero-cost-when-off contract:

* ``Simulator.profiler`` is ``None`` by default and the dispatch loop
  pays exactly one attribute check per ``run_until`` call.
* With a :class:`KernelProfiler` attached, every event popped at the
  engine's single dispatch point is attributed by
  :func:`classify_event` to a **closed category registry**
  (:data:`CATEGORIES`): timer fires by timer kind, message deliveries
  by wire type, churn, plus harness stages (world build, metric
  sampling).  Unrecognized callbacks land in ``event:other`` — the
  registry never grows at runtime, so profiles from different runs are
  always comparable.
* The attribution **exactly partitions** the profiled wall time: all
  arithmetic is integer nanoseconds and the ``untracked`` residual is
  computed as ``total_ns - sum(categories)``, so
  ``sum(categories) + untracked == total`` holds to the nanosecond
  (pinned by test).

Beyond category seconds the profiler samples event-heap telemetry per
``run_until`` window (live size, corpse ratio, cumulative
pushes/pops/cancels) and, opt-in, tracemalloc allocation deltas per
category.

Export surfaces: :meth:`KernelProfile.table` (top-N attribution),
:meth:`KernelProfile.collapsed` (collapsed-stack text for classic
flamegraph tooling), and :meth:`KernelProfile.speedscope` (a
speedscope-compatible ``sampled`` profile, checked by
:func:`validate_speedscope`).  ``python -m repro.obs prof`` renders all
three and ``prof diff`` compares two profiles category-by-category.

:class:`StageProfiler` — the harness's coarse per-stage wall-clock
profiler — lives here too.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

__all__ = [
    "CATEGORIES",
    "CategoryMismatchError",
    "KernelProfile",
    "KernelProfiler",
    "PROFILE_SCHEMA",
    "ProfileError",
    "StageProfiler",
    "classify_event",
    "diff_table",
    "merge_profiles",
    "validate_speedscope",
    "wall_monotonic",
    "wall_perf_ns",
]

PROFILE_SCHEMA = "repro.kernel-prof/1"

#: Wire grammar, mirrored from :data:`repro.net.messages.MSG_TYPES`.
#: Mirrored rather than imported because the obs package never imports
#: from the engines (they import it); a test pins the two in sync.
_MSG_TYPE_NAMES = (
    "WALK",
    "VAR_PROBE",
    "VAR_REPLY",
    "EXCHANGE_PREPARE",
    "EXCHANGE_COMMIT",
    "EXCHANGE_ABORT",
    "NOTIFY",
)

#: The closed category registry.  ``deliver:<T>`` covers message
#: delivery by wire type (Var collection = VAR_PROBE/VAR_REPLY, the
#: exchange 2PC phases = EXCHANGE_*), ``timer:*`` covers timer fires by
#: kind, ``build``/``sample`` are harness stages, ``event:other`` is
#: the in-window catch-all and ``untracked`` the arithmetic residual.
CATEGORIES: tuple[str, ...] = (
    "build",
    "sample",
    "timer:probe",
    "timer:walk",
    "timer:vote",
    "timer:prepared",
    "timer:periodic",
    "timer:round",
    "churn",
    *(f"deliver:{name}" for name in _MSG_TYPE_NAMES),
    "event:other",
    "untracked",
)

_CATEGORY_SET = frozenset(CATEGORIES)

#: Scheduled-callback name -> category.  These are the engine-plane
#: callbacks that reach the simulator's dispatch point; anything not
#: listed is ``event:other`` (the registry is closed on purpose).
_TIMER_BY_NAME: dict[str, str] = {
    "_probe_cycle": "timer:probe",
    "_walk_timeout": "timer:walk",
    "_vote_timeout": "timer:vote",
    "_prepared_timeout": "timer:prepared",
    "_fire": "timer:periodic",
    "_round": "timer:round",
    "_churn_event": "churn",
}

_DELIVER_BY_TYPE: dict[str, str] = {
    name: f"deliver:{name}" for name in _MSG_TYPE_NAMES
}


class ProfileError(Exception):
    """A profile artifact could not be read (truncated, wrong schema…)."""


class CategoryMismatchError(ProfileError):
    """A profile names categories outside the closed registry, or two
    profiles being diffed disagree on their category sets."""


# -- sanctioned wall-clock reads ----------------------------------------

def wall_monotonic() -> float:
    """Monotonic wall seconds for presentation-side use (ETA display).

    CLI code must route wall-clock reads through here instead of
    importing :mod:`time` directly: this module is the D1 allowlist
    entry, so the sanctioned surface stays greppable and explicit.
    """
    return time.monotonic()


def wall_perf_ns() -> int:
    """High-resolution wall nanoseconds (``perf_counter_ns``)."""
    return time.perf_counter_ns()


# -- classification -----------------------------------------------------

def classify_event(callback: Callable[..., None], args: tuple[Any, ...]) -> str:
    """Map a dispatched event to its registry category.

    Message deliveries are recognized by the transport's ``_deliver``
    callback carrying the message as ``args[0]``; timer fires by the
    callback's name.  The return value is always a member of
    :data:`CATEGORIES`.
    """
    name = getattr(callback, "__name__", "")
    if name == "_deliver" and args:
        cat = _DELIVER_BY_TYPE.get(getattr(args[0], "type_name", ""))
        if cat is not None:
            return cat
    return _TIMER_BY_NAME.get(name, "event:other")


# -- the profiler -------------------------------------------------------

class KernelProfiler:
    """Attributes wall-clock nanoseconds to the closed category registry.

    Lifecycle: the harness creates one, assigns it to
    ``Simulator.profiler``, and the engine brackets each ``run_until``
    with :meth:`begin_window`/:meth:`end_window` and each dispatched
    event with :meth:`begin_event`/:meth:`end_event`.  Harness stages
    outside the dispatch loop (world build, metric sampling) go through
    :meth:`stage`, which accrues into both the category and the total
    so the partition invariant holds globally.

    All accumulation is integer nanoseconds; the ``untracked`` residual
    (window time not inside any event) is exact by construction.
    """

    def __init__(self, *, trace_malloc: bool = False) -> None:
        self.category_ns: dict[str, int] = {}
        self.category_counts: dict[str, int] = {}
        self.total_ns = 0
        self.events = 0
        self.windows = 0
        self.heap_samples: list[dict[str, float]] = []
        self.trace_malloc = trace_malloc
        self.alloc_bytes: dict[str, int] = {}
        self._window_start = 0
        self._event_start = 0
        self._event_alloc = 0

    # -- window bracketing (one window per run_until call) --------------

    def begin_window(self) -> None:
        if self.trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
        self._window_start = time.perf_counter_ns()

    def end_window(self, sim: Any) -> None:
        self.total_ns += time.perf_counter_ns() - self._window_start
        self.windows += 1
        queue = getattr(sim, "queue", None)
        if queue is None:
            return
        heap_size = queue.heap_size
        live = len(queue)
        self.heap_samples.append(
            {
                "t": sim.now,
                "live": live,
                "heap": heap_size,
                "corpse_ratio": round((heap_size - live) / heap_size, 6) if heap_size else 0.0,
                "pushes": queue.pushes,
                "pops": queue.pops,
                "cancels": queue.cancels,
            }
        )

    # -- per-event bracketing (engine dispatch point) --------------------

    def begin_event(self) -> None:
        if self.trace_malloc:
            self._event_alloc = tracemalloc.get_traced_memory()[0]
        self._event_start = time.perf_counter_ns()

    def end_event(self, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        elapsed = time.perf_counter_ns() - self._event_start
        category = classify_event(callback, args)
        self.category_ns[category] = self.category_ns.get(category, 0) + elapsed
        self.category_counts[category] = self.category_counts.get(category, 0) + 1
        self.events += 1
        if self.trace_malloc:
            delta = tracemalloc.get_traced_memory()[0] - self._event_alloc
            self.alloc_bytes[category] = self.alloc_bytes.get(category, 0) + delta

    # -- harness stages --------------------------------------------------

    @contextmanager
    def stage(self, category: str) -> Iterator[None]:
        """Time a harness-side block under a registry category.

        Stage time accrues into both the category and the grand total,
        so the partition invariant covers stage categories too.
        """
        if category not in _CATEGORY_SET:
            raise ValueError(f"unknown profile category {category!r}")
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - started
            self.category_ns[category] = self.category_ns.get(category, 0) + elapsed
            self.category_counts[category] = self.category_counts.get(category, 0) + 1
            self.total_ns += elapsed

    # -- finalization ----------------------------------------------------

    def finish(self, *, sim_seconds: float | None = None) -> "KernelProfile":
        """Freeze the accumulated state into a :class:`KernelProfile`."""
        tracked = sum(self.category_ns.values())
        heap: dict[str, Any] = {}
        if self.heap_samples:
            last = self.heap_samples[-1]
            heap = {
                "final_live": last["live"],
                "final_heap": last["heap"],
                "final_corpse_ratio": last["corpse_ratio"],
                "max_heap": max(s["heap"] for s in self.heap_samples),
                "pushes": last["pushes"],
                "pops": last["pops"],
                "cancels": last["cancels"],
            }
            if sim_seconds:
                heap["pushes_per_sim_s"] = round(last["pushes"] / sim_seconds, 3)
                heap["pops_per_sim_s"] = round(last["pops"] / sim_seconds, 3)
                heap["cancels_per_sim_s"] = round(last["cancels"] / sim_seconds, 3)
        return KernelProfile(
            total_ns=self.total_ns,
            untracked_ns=self.total_ns - tracked,
            events=self.events,
            windows=self.windows,
            sim_seconds=sim_seconds,
            categories=dict(sorted(self.category_ns.items())),
            counts=dict(sorted(self.category_counts.items())),
            heap=heap,
            alloc_bytes=dict(sorted(self.alloc_bytes.items())) if self.trace_malloc else None,
        )


# -- the frozen artifact ------------------------------------------------

@dataclass
class KernelProfile:
    """A finished profile: category nanoseconds plus heap telemetry.

    The JSON form (:meth:`to_dict`/:meth:`save`) is the interchange
    format consumed by ``python -m repro.obs prof``; loading validates
    the category set against the closed registry.
    """

    total_ns: int
    untracked_ns: int
    events: int
    windows: int
    sim_seconds: float | None
    categories: dict[str, int]
    counts: dict[str, int]
    heap: dict[str, Any] = field(default_factory=dict)
    alloc_bytes: dict[str, int] | None = None
    schema_version: str = PROFILE_SCHEMA

    def seconds(self, category: str) -> float:
        return self.categories.get(category, 0) / 1e9

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema_version": self.schema_version,
            "total_ns": self.total_ns,
            "untracked_ns": self.untracked_ns,
            "events": self.events,
            "windows": self.windows,
            "sim_seconds": self.sim_seconds,
            "categories": dict(sorted(self.categories.items())),
            "counts": dict(sorted(self.counts.items())),
            "heap": self.heap,
        }
        if self.alloc_bytes is not None:
            doc["alloc_bytes"] = dict(sorted(self.alloc_bytes.items()))
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "KernelProfile":
        if not isinstance(doc, Mapping):
            raise ProfileError("profile document is not an object")
        schema = doc.get("schema_version")
        if schema != PROFILE_SCHEMA:
            raise ProfileError(f"unsupported profile schema {schema!r}")
        missing = [k for k in ("total_ns", "untracked_ns", "categories", "counts") if k not in doc]
        if missing:
            raise ProfileError(f"profile missing fields: {', '.join(missing)}")
        categories = dict(doc["categories"])
        unknown = sorted(set(categories) - _CATEGORY_SET)
        if unknown:
            raise CategoryMismatchError(
                f"profile names categories outside the registry: {', '.join(unknown)}"
            )
        return cls(
            total_ns=int(doc["total_ns"]),
            untracked_ns=int(doc["untracked_ns"]),
            events=int(doc.get("events", 0)),
            windows=int(doc.get("windows", 0)),
            sim_seconds=doc.get("sim_seconds"),
            categories=categories,
            counts=dict(doc["counts"]),
            heap=dict(doc.get("heap", {})),
            alloc_bytes=dict(doc["alloc_bytes"]) if doc.get("alloc_bytes") is not None else None,
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "KernelProfile":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ProfileError(f"cannot read profile {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProfileError(f"profile {path} is not valid JSON (truncated?): {exc}") from exc
        return cls.from_dict(doc)

    # -- export surfaces -------------------------------------------------

    def table(self, top: int | None = None) -> str:
        """Top-N attribution table, widest category first."""
        rows = sorted(self.categories.items(), key=lambda kv: (-kv[1], kv[0]))
        rows.append(("untracked", self.untracked_ns))
        if top is not None:
            rows = rows[:top]
        total = self.total_ns or 1
        lines = [f"{'category':<26} {'seconds':>10} {'share':>7} {'events':>9}"]
        for category, ns in rows:
            share = 100.0 * ns / total
            count = self.counts.get(category, 0)
            lines.append(f"{category:<26} {ns / 1e9:>10.4f} {share:>6.1f}% {count:>9}")
        lines.append(f"{'total':<26} {self.total_ns / 1e9:>10.4f} {100.0:>6.1f}% {self.events:>9}")
        if self.heap:
            lines.append("")
            lines.append("event heap: " + ", ".join(
                f"{k}={self.heap[k]}" for k in sorted(self.heap)))
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed-stack text (``frame;frame count``) for flamegraph tools."""
        lines = [
            f"kernel;{category} {ns}"
            for category, ns in sorted(self.categories.items())
            if ns > 0
        ]
        lines.append(f"kernel;untracked {self.untracked_ns}")
        return "\n".join(lines) + "\n"

    def speedscope(self, name: str = "repro kernel profile") -> dict[str, Any]:
        """A speedscope ``sampled`` profile: one sample per category."""
        rows = [(c, ns) for c, ns in sorted(self.categories.items()) if ns > 0]
        rows.append(("untracked", self.untracked_ns))
        frames = [{"name": category} for category, _ in rows]
        weights = [ns for _, ns in rows]
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "nanoseconds",
                    "startValue": 0,
                    "endValue": self.total_ns,
                    "samples": [[i] for i in range(len(rows))],
                    "weights": weights,
                }
            ],
        }


def validate_speedscope(doc: Any) -> None:
    """Check ``doc`` against the speedscope file-format schema.

    Hand-rolled (the repo takes no jsonschema dependency) but covers
    every constraint the viewer relies on for ``sampled`` profiles.
    Raises :class:`ProfileError` on the first violation.
    """
    if not isinstance(doc, dict):
        raise ProfileError("speedscope document must be an object")
    if doc.get("$schema") != "https://www.speedscope.app/file-format-schema.json":
        raise ProfileError("missing or wrong $schema")
    shared = doc.get("shared")
    if not isinstance(shared, dict) or not isinstance(shared.get("frames"), list):
        raise ProfileError("shared.frames must be a list")
    frames = shared["frames"]
    for i, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(frame.get("name"), str):
            raise ProfileError(f"frame {i} must be an object with a string name")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ProfileError("profiles must be a non-empty list")
    for p, profile in enumerate(profiles):
        if not isinstance(profile, dict):
            raise ProfileError(f"profile {p} must be an object")
        if profile.get("type") != "sampled":
            raise ProfileError(f"profile {p}: only 'sampled' profiles are emitted")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ProfileError(f"profile {p}: samples and weights must be lists")
        if len(samples) != len(weights):
            raise ProfileError(f"profile {p}: samples/weights length mismatch")
        for s, sample in enumerate(samples):
            if not isinstance(sample, list):
                raise ProfileError(f"profile {p} sample {s} must be a frame-index stack")
            for idx in sample:
                if not isinstance(idx, int) or not 0 <= idx < len(frames):
                    raise ProfileError(
                        f"profile {p} sample {s}: frame index {idx} out of range")
        for key in ("startValue", "endValue"):
            if not isinstance(profile.get(key), (int, float)):
                raise ProfileError(f"profile {p}: {key} must be a number")


def diff_table(before: KernelProfile, after: KernelProfile) -> str:
    """Category-by-category A/B delta table.

    Both profiles must cover the same category set (the registry is
    closed, so two honest profiles from any two revisions do); a
    mismatch raises :class:`CategoryMismatchError`.
    """
    before_keys = set(before.categories)
    after_keys = set(after.categories)
    if before_keys != after_keys:
        only_a = sorted(before_keys - after_keys)
        only_b = sorted(after_keys - before_keys)
        parts = []
        if only_a:
            parts.append(f"only in A: {', '.join(only_a)}")
        if only_b:
            parts.append(f"only in B: {', '.join(only_b)}")
        raise CategoryMismatchError("profiles disagree on categories (" + "; ".join(parts) + ")")
    rows = [(c, before.categories[c], after.categories[c]) for c in sorted(before_keys)]
    rows.append(("untracked", before.untracked_ns, after.untracked_ns))
    rows.append(("total", before.total_ns, after.total_ns))
    rows.sort(key=lambda r: -(abs(r[2] - r[1])))
    lines = [f"{'category':<26} {'A (s)':>10} {'B (s)':>10} {'delta (s)':>10} {'ratio':>7}"]
    for category, a_ns, b_ns in rows:
        delta = (b_ns - a_ns) / 1e9
        ratio = f"{b_ns / a_ns:>7.3f}" if a_ns else "    n/a"
        lines.append(
            f"{category:<26} {a_ns / 1e9:>10.4f} {b_ns / 1e9:>10.4f} {delta:>+10.4f} {ratio}")
    return "\n".join(lines)


# -- the original coarse stage profiler (relocated from the harness) ----

class StageProfiler:
    """Accumulates wall-clock seconds per named stage.

    The harness's original coarse profiler: stages are free-form names
    (``build_world``, ``simulate``, ``sample``…) and re-entering a
    stage adds to its total.  Kept as the parallel-sweep profile
    currency — worker profiles are plain ``dict[str, float]`` and merge
    with :func:`merge_profiles`.
    """

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the enclosed block, accumulating into ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.timings[name] = self.timings.get(name, 0.0) + elapsed


def merge_profiles(profiles: Iterable[Mapping[str, float] | None]) -> dict[str, float]:
    """Stage-wise sum of several workers' profiles (``None`` entries skipped)."""
    merged: dict[str, float] = {}
    for profile in profiles:
        if not profile:
            continue
        for name, seconds in profile.items():
            merged[name] = merged.get(name, 0.0) + float(seconds)
    return dict(sorted(merged.items()))
