"""Top-level CLI: simulate and inspect memory networks.

Examples::

    python -m repro simulate --topology tree --workload KMEANS
    python -m repro simulate --label "50%-SL (NVM-L)" --arbiter distance
    python -m repro show --label 100%-SL          # ASCII topology
    python -m repro workloads                     # list the suite
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import visual
from repro.analysis.network_stats import render_cube_report, render_link_report
from repro.config import (
    VALID_ARBITERS,
    VALID_TOPOLOGIES,
    SystemConfig,
    parse_label,
)
from repro.system import MemoryNetworkSystem
from repro.topology import build_topology
from repro.workloads import PAPER_SUITE, get_workload


def _config_from_args(args) -> SystemConfig:
    if args.label:
        config = parse_label(args.label)
    else:
        config = SystemConfig(topology=args.topology)
    if getattr(args, "arbiter", None):
        config = config.with_(arbiter=args.arbiter)
    return config


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    workload = get_workload(args.workload)
    system = MemoryNetworkSystem(config, workload, requests=args.requests)
    result = system.run()
    breakdown = result.collector.all
    print(f"configuration : {result.config_label} ({config.arbiter})")
    print(f"workload      : {workload.name} — {workload.description}")
    print(f"runtime       : {result.runtime_ns / 1000:.2f} us "
          f"({result.transactions} requests)")
    print(f"latency       : {breakdown.total_ns:.1f} ns "
          f"(to={breakdown.to_memory_ns:.1f} in={breakdown.in_memory_ns:.1f} "
          f"from={breakdown.from_memory_ns:.1f})")
    print(f"row hits      : {result.row_hit_rate * 100:.1f}%")
    print(f"energy        : {result.energy.total_pj / 1e6:.2f} uJ "
          f"(network {result.energy.network_pj / 1e6:.2f})")
    if args.links:
        print()
        print(render_link_report(system))
    if args.cubes:
        print()
        print(render_cube_report(system))
    return 0


def cmd_show(args) -> int:
    config = _config_from_args(args)
    topo = build_topology(config)
    print(visual.render_topology(topo))
    print()
    print(visual.render_distance_histogram(topo))
    if config.topology == "skiplist":
        print()
        print(visual.render_skiplist(config.cubes_per_port))
    return 0


def cmd_selfcheck(args) -> int:
    from repro.validate import all_passed, run_self_check

    results = run_self_check(_config_from_args(args))
    for result in results:
        print(result)
    return 0 if all_passed(results) else 1


def cmd_workloads(_args) -> int:
    for spec in PAPER_SUITE.values():
        print(f"{spec.name:<10} reads={spec.read_fraction:.2f} "
              f"gap={spec.mean_gap_ns:.1f}ns mlp={spec.mlp:<3d} "
              f"burst={spec.burst_size:.0f}  {spec.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one workload on one MN")
    sim.add_argument("--topology", default="chain", choices=VALID_TOPOLOGIES)
    sim.add_argument("--label", default="",
                     help='paper-style config label, e.g. "50%%-T (NVM-L)"')
    sim.add_argument("--arbiter", choices=VALID_ARBITERS)
    sim.add_argument("--workload", default="KMEANS")
    sim.add_argument("--requests", type=int, default=2000)
    sim.add_argument("--links", action="store_true",
                     help="print per-link utilization")
    sim.add_argument("--cubes", action="store_true",
                     help="print per-cube access statistics")
    sim.set_defaults(func=cmd_simulate)

    show = sub.add_parser("show", help="render a topology as ASCII")
    show.add_argument("--topology", default="chain", choices=VALID_TOPOLOGIES)
    show.add_argument("--label", default="")
    show.set_defaults(func=cmd_show)

    wl = sub.add_parser("workloads", help="list the paper's workload suite")
    wl.set_defaults(func=cmd_workloads)

    check = sub.add_parser("selfcheck", help="run built-in model self-checks")
    check.add_argument("--topology", default="chain", choices=VALID_TOPOLOGIES)
    check.add_argument("--label", default="")
    check.set_defaults(func=cmd_selfcheck)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
