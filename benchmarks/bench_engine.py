"""Benchmark the simulation core: events/second through the hot path.

Runs one fig10-style configuration (chain topology, 1 TiB, KMEANS) and
measures raw engine throughput along two axes —

* scheduler: the compiled ``native`` engine (when built), the two-tier
  timing ``wheel`` (default), and the plain binary ``heap`` that
  doubles as the determinism reference — all must produce identical
  result digests;
* observability: off (the zero-overhead-when-off baseline), per-hop
  latency ``attribution``, 1-in-8 ``sampled`` attribution
  (``attribution_sample=8``), and full event ``trace`` recording.

Cells are measured in interleaved rounds (round-robin over every cell
per repeat) so machine-load drift biases no single backend, and each
cell reports the best round (events/second is a throughput: the
minimum-noise run is the honest one on a shared machine).  The obs-off
and sampled cells get ``--ratio-rounds`` extra interleaved rounds: the
scheduler ratios (``wheel_vs_heap``, ``native_vs_wheel``, ...) and the
gated sampled-attribution overhead compare best-of estimates whose
per-sample noise on a busy 1-CPU box exceeds the true differences, so
those cells need more samples to converge.

Results land in ``BENCH_engine.json`` together with the packet-pool
recycling counters of the gated scheduler's obs-off cell, and a
timestamped ``trend`` list that accumulates one entry per benchmark run
so regressions are visible across commits.  The CI smoke step asserts a
tolerant floor on one scheduler's obs-off cell (``--gate-scheduler``).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--requests N]
        [--repeats N] [--output PATH] [--history N]
        [--min-events-per-s FLOOR] [--max-sampled-overhead FRACTION]
        [--gate-scheduler {wheel,heap,native}]

``REPRO_BENCH_REQUESTS`` also scales the request count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.config import SystemConfig
from repro.serialization import result_digest
from repro.sim.engine import SCHEDULERS, Engine
from repro.system import MemoryNetworkSystem
from repro.units import TIB_BYTES
from repro.workloads import get_workload

DEFAULT_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "300")) * 4
WORKLOAD = "KMEANS"
BASE = SystemConfig(total_capacity_bytes=TIB_BYTES)


def run_cell(requests: int, config: SystemConfig, scheduler: str):
    """One timed run; returns (rate, result, system)."""
    system = MemoryNetworkSystem(
        config, get_workload(WORKLOAD), requests=requests,
        engine=Engine(scheduler),
    )
    started = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - started
    rate = result.events_processed / elapsed if elapsed else 0.0
    return rate, result, system


def load_trend(path: Path) -> list:
    """Prior trend entries from an existing BENCH_engine.json, if any."""
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    trend = previous.get("trend")
    if isinstance(trend, list):
        return trend
    # Pre-trend payloads: fold the old headline numbers into one entry.
    if isinstance(previous.get("events_per_s"), dict):
        return [{
            "timestamp": None,
            "requests": previous.get("requests"),
            "events_per_s": previous["events_per_s"],
        }]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--ratio-rounds",
        type=int,
        default=8,
        help="extra interleaved rounds for the obs-off cells, tightening "
        "the best-of estimates behind the scheduler ratios",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
    )
    parser.add_argument(
        "--history",
        type=int,
        default=50,
        help="trend entries retained in the output file (keeps the "
        "checked-in payload from growing without bound)",
    )
    parser.add_argument(
        "--min-events-per-s",
        type=float,
        default=None,
        help="fail (exit 1) if the gated scheduler's obs-off rate falls "
        "below this floor — the CI perf gate",
    )
    parser.add_argument(
        "--max-sampled-overhead",
        type=float,
        default=None,
        help="fail (exit 1) if the gated scheduler's 1-in-8 sampled "
        "attribution overhead exceeds this fraction (CI uses 0.10)",
    )
    parser.add_argument(
        "--gate-scheduler",
        choices=SCHEDULERS,
        default="wheel",
        help="which scheduler's cells the perf gates apply to",
    )
    args = parser.parse_args(argv)
    if args.history < 1:
        parser.error("--history must be at least 1")

    from repro.sim import native

    schedulers = ["native", "wheel", "heap"]
    if not native.available():
        print("  (compiled extension not built: skipping the native engine)")
        schedulers.remove("native")
    if args.gate_scheduler not in schedulers:
        print(f"FAIL: cannot gate on unavailable {args.gate_scheduler}",
              file=sys.stderr)
        return 1
    configs = [
        ("off", BASE),
        ("attribution", BASE.with_obs(attribution=True)),
        ("sampled", BASE.with_obs(attribution=True, attribution_sample=8)),
        ("traced", BASE.with_obs(attribution=True, trace=True)),
    ]
    cells = [
        (scheduler, obs_label, config)
        for scheduler in schedulers
        for obs_label, config in configs
    ]

    print(
        f"bench_engine: {WORKLOAD} x requests={args.requests}, "
        f"best of {args.repeats} interleaved rounds",
        flush=True,
    )
    rates = {f"{s}_{o}": 0.0 for s, o, _ in cells}
    digests = {}
    events = None
    pool_stats = None
    for _round in range(args.repeats):
        for scheduler, obs_label, config in cells:
            rate, result, system = run_cell(args.requests, config, scheduler)
            key = f"{scheduler}_{obs_label}"
            rates[key] = max(rates[key], rate)
            if obs_label == "off":
                digests[scheduler] = result_digest(result)
                events = result.events_processed
                if scheduler == args.gate_scheduler:
                    pool_stats = system.packet_pool.stats()
    # The sampled cell rides along in the extra rounds: its overhead is
    # gated in CI, and comparing a best-of-N cell against a best-of-3
    # one would misread round-count asymmetry as obs overhead.
    ratio_configs = [("off", BASE), configs[2]]
    for _round in range(args.ratio_rounds):
        for scheduler in schedulers:
            for obs_label, config in ratio_configs:
                rate, _result, _system = run_cell(args.requests, config, scheduler)
                key = f"{scheduler}_{obs_label}"
                rates[key] = max(rates[key], rate)
    rates = {key: round(rate) for key, rate in rates.items()}
    for scheduler in schedulers:
        for obs_label, _config in configs:
            rate = rates[f"{scheduler}_{obs_label}"]
            print(f"  {scheduler:5s} / {obs_label:11s}: {rate / 1e3:7.0f}k events/s")

    reference = digests["heap"]
    for scheduler, digest in digests.items():
        if digest != reference:
            print(
                f"FAIL: {scheduler} and heap schedulers disagree "
                f"({digest[:12]} != {reference[:12]})",
                file=sys.stderr,
            )
            return 1
    print(
        f"  digests agree    : {reference[:16]} "
        f"({'/'.join(schedulers)}, {events} events)"
    )
    print(
        f"  packet pool      : {pool_stats['acquired']} acquired, "
        f"{pool_stats['recycled']} recycled "
        f"(freelist {pool_stats['freelist']})"
    )

    def ratio(a: str, b: str):
        return round(rates[a] / rates[b], 3) if rates.get(b) else None

    def overhead(scheduler: str, obs_label: str):
        base = rates.get(f"{scheduler}_off")
        if not base:
            return None
        return round(1 - rates[f"{scheduler}_{obs_label}"] / base, 3)

    output = Path(args.output)
    payload = {
        "workload": WORKLOAD,
        "requests": args.requests,
        "repeats": args.repeats,
        "cpus": os.cpu_count(),
        "events_processed": events,
        "result_digest": reference,
        "events_per_s": rates,
        "wheel_vs_heap": ratio("wheel_off", "heap_off"),
        "native_vs_heap": (
            ratio("native_off", "heap_off") if "native" in schedulers else None
        ),
        "native_vs_wheel": (
            ratio("native_off", "wheel_off") if "native" in schedulers else None
        ),
        "attribution_overhead": overhead("wheel", "attribution"),
        "sampled_attribution_overhead": overhead("wheel", "sampled"),
        "trace_overhead": overhead("wheel", "traced"),
        "packet_pool": pool_stats,
        "trend": (load_trend(output) + [{
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "requests": args.requests,
            "events_per_s": rates,
        }])[-args.history:],
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.min_events_per_s is not None:
        gate_key = f"{args.gate_scheduler}_off"
        if rates[gate_key] < args.min_events_per_s:
            print(
                f"FAIL: {gate_key} {rates[gate_key]} events/s below the "
                f"floor of {args.min_events_per_s:g}",
                file=sys.stderr,
            )
            return 1
        print(
            f"  perf gate        : {gate_key} {rates[gate_key]} >= "
            f"{args.min_events_per_s:g} events/s OK"
        )
    if args.max_sampled_overhead is not None:
        sampled = overhead(args.gate_scheduler, "sampled")
        if sampled is None or sampled > args.max_sampled_overhead:
            print(
                f"FAIL: {args.gate_scheduler} sampled-attribution overhead "
                f"{sampled} above the {args.max_sampled_overhead:g} ceiling",
                file=sys.stderr,
            )
            return 1
        print(
            f"  obs gate         : {args.gate_scheduler} sampled attribution "
            f"overhead {sampled:.3f} <= {args.max_sampled_overhead:g} OK"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
