"""Profile one simulation under cProfile and print the hot functions.

The engine-throughput work that produced the timing-wheel scheduler and
the event-driven router wake-ups was driven by exactly this view: run a
representative configuration, sort by cumulative or total time, and
attack the top of the list.  Kept as a first-class tool so the next
optimization round starts from a measurement, not a guess.

Before the flat listing it prints a per-component rollup: every
profiled frame is bucketed by the ``repro`` module that owns it
(compiled-extension methods land in ``sim._native [C]``), and the
buckets are ranked by the time spent in their own code.  That table
answers "which component do I attack next" directly, without mentally
summing a dozen pstats rows per file.  The profile covers building the
system as well as running it, and a ``build X s, run Y s`` line above
the table splits the profiled wall time between the two: a short run
on a large topology can spend most of its time in the constructor.

Usage::

    PYTHONPATH=src python tools/profile_run.py [--requests N]
        [--workload NAME] [--label CONFIG] [--sort tottime|cumtime]
        [--limit N] [--obs] [--stats PATH]
        [--engine {wheel,heap,native}]

``--stats PATH`` additionally dumps the raw pstats file for
``snakeviz``/``pstats`` post-processing.  ``--label`` accepts the same
topology labels as the experiments (e.g. ``chain-4``, ``ring-8``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import re
import sys
import time

from repro.config import SystemConfig, parse_label
from repro.sim.engine import SCHEDULERS, Engine
from repro.system import MemoryNetworkSystem
from repro.units import TIB_BYTES
from repro.workloads import get_workload

_NATIVE_FRAME = re.compile(r"\brepro\.sim\._native\b")


def _component_of(frame_key: tuple) -> str:
    """Bucket one pstats frame ``(filename, lineno, funcname)`` by the
    repro component that owns it."""
    filename, _lineno, funcname = frame_key
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        module = path[at + len(marker):]
        module = module[:-3] if module.endswith(".py") else module
        parts = module.replace("/__init__", "").split("/")
        # One level below the package keeps the table readable:
        # net/link.py -> net.link, sim/engine.py -> sim.engine.
        return ".".join(parts[:2]) if parts else "repro"
    if _NATIVE_FRAME.search(funcname):
        return "sim._native [C]"
    if filename == "~" or filename.startswith("<"):
        return "(interpreter built-ins)"
    return "(stdlib/other)"


def print_component_table(stats: pstats.Stats) -> None:
    """Per-component self-time rollup over every profiled frame."""
    totals: dict[str, tuple[float, int]] = {}
    for frame_key, (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        component = _component_of(frame_key)
        self_s, calls = totals.get(component, (0.0, 0))
        totals[component] = (self_s + tottime, calls + ncalls)
    wall = sum(self_s for self_s, _ in totals.values()) or 1.0
    print("\nper-component self time:")
    print(f"  {'component':<24} {'self s':>8} {'share':>7} {'calls':>10}")
    for component, (self_s, calls) in sorted(
        totals.items(), key=lambda item: item[1][0], reverse=True
    ):
        print(
            f"  {component:<24} {self_s:8.3f} {self_s / wall:6.1%} {calls:10d}"
        )


def profile_simulation(
    requests: int,
    workload: str,
    label: str | None,
    obs: bool,
    sort: str,
    limit: int,
    stats_path: str | None,
    engine: str | None = None,
) -> None:
    config = SystemConfig(total_capacity_bytes=TIB_BYTES)
    if label:
        config = parse_label(label, config)
    if obs:
        config = config.with_obs(attribution=True)
    profiler = cProfile.Profile()
    profiler.enable()
    start = time.perf_counter()
    system = MemoryNetworkSystem(
        config,
        get_workload(workload),
        requests=requests,
        engine=Engine(engine) if engine else None,
    )
    built = time.perf_counter()
    result = system.run()
    done = time.perf_counter()
    profiler.disable()

    print(
        f"{workload} x {requests} requests"
        + (f" on {label}" if label else "")
        + f": {result.events_processed} events, runtime {result.runtime_ps} ps"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if stats_path:
        stats.dump_stats(stats_path)
        print(f"raw stats written to {stats_path}")
    print(f"\nbuild {built - start:.3f} s, run {done - built:.3f} s")
    print_component_table(stats)
    print()
    stats.sort_stats(sort).print_stats(limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--workload", default="KMEANS")
    parser.add_argument(
        "--label", default=None,
        help="topology/config label, e.g. chain-4 or ring-8 (default: base)",
    )
    parser.add_argument(
        "--sort", default="tottime", choices=("tottime", "cumtime"),
        help="pstats sort key (default tottime: self-time finds hot loops)",
    )
    parser.add_argument("--limit", type=int, default=25)
    parser.add_argument(
        "--obs", action="store_true",
        help="profile with latency attribution enabled",
    )
    parser.add_argument(
        "--stats", default=None, metavar="PATH",
        help="also dump the raw pstats file to PATH",
    )
    parser.add_argument(
        "--engine", default=None, choices=SCHEDULERS,
        help="event-scheduler backend to profile (default: the ambient "
        "one — REPRO_ENGINE or the wheel)",
    )
    args = parser.parse_args(argv)
    profile_simulation(
        args.requests, args.workload, args.label, args.obs,
        args.sort, args.limit, args.stats, args.engine,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
