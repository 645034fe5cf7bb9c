"""Live-plane throughput benchmark (``make bench-live``).

Drives a 50-peer loopback swarm — real UDP datagrams, real codec, real
event-loop timers — for a fixed protocol duration and records the two
throughput numbers the deployment plane is judged by:

* **msgs_per_s** — datagrams through the kernel per wall second, i.e.
  how much protocol traffic one process sustains;
* **exchanges_per_s** — committed PROP exchanges per wall second, the
  useful-work rate behind that traffic.

Both land in ``benchmarks/history.jsonl`` (one ``live_swarm`` record,
declaring both higher-is-better) so ``make bench-check`` gates drops in
the live stack — codec, transport, scheduler — exactly as it gates the
simulator benches.  Wall-clock measurement is legitimate here: the
deployment plane *runs on* the wall clock; its wall-seconds figure is
the workload, not noise around it.

Exits 0 without recording when loopback UDP is unavailable (CI
sandboxes), mirroring the live test suite's skip.  Not a
pytest-benchmark module on purpose: one swarm run is the measurement,
repeat-and-best-of would just burn wall time on a timer-paced workload.
"""

from __future__ import annotations

import asyncio
import json
import sys

from common import record_history  # benchmarks/ is the cwd for bench scripts

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig
from repro.live.cli import swarm_metrics
from repro.live.swarm import Swarm
from repro.live.transport import udp_loopback_available

#: Fixed bench shape: big enough for sustained traffic, small enough to
#: finish in ~2 wall seconds.  480 protocol s covers eight warmup probe
#: cycles, where PROP's message rate peaks.
CONFIG = ExperimentConfig(
    seed=0,
    preset="ts-small",
    n_overlay=50,
    prop=PROPConfig(policy="G"),
    transport="udp",
    duration=480.0,
    sample_interval=480.0,
    live_speedup=240.0,
)


def main() -> int:
    if not udp_loopback_available():
        print("bench-live: loopback UDP unavailable; skipping", file=sys.stderr)
        return 0
    report = asyncio.run(Swarm(CONFIG).run())
    metrics = swarm_metrics(report)
    print(report.summary(), file=sys.stderr)
    print(json.dumps({"bench": "live_swarm", **metrics}, sort_keys=True))
    record_history(
        "live_swarm", metrics, config=CONFIG,
        higher=("msgs_per_s", "exchanges_per_s"),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
