"""P2P ablation — cube-to-cube copies vs host-mediated traffic.

Sweeps the peer-to-peer copy fraction over the four mixed-tier
topologies (50%-C/R/SL/MC, NVM-last) with the ``promote`` pattern, so
every copy moves a hot page from the NVM tier to the DRAM tier without
a round trip through the host.  Two effects to watch:

* **Runtime**: each copy replaces a host-mediated read (data hauled
  all the way back over the host SerDes links) with a small request, an
  intra-network transfer, and a small ack — the data never crosses the
  host links at all.  Runtime therefore *improves* as the copy fraction
  grows, because the scarcest resource in every mixed-tier config is
  host-link bandwidth.
* **Transfer locality**: mean transfer hop count is a direct read on
  how far the promote pattern has to reach — chains pay about half the
  network diameter, MetaCube meshes stay near one hop.

``repro.obs`` attribution tiles the copies under ``mem.xfer.*``; see
``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import render_table
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.runner import SimJob, get_runner
from repro.units import to_ns
from repro.workloads import WorkloadSpec

TOPOLOGIES = ("50%-C (NVM-L)", "50%-R (NVM-L)", "50%-SL (NVM-L)", "50%-MC (NVM-L)")
P2P_FRACTIONS = (0.0, 0.05, 0.1, 0.2)


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    # Like the RAS ablation: the copy path is a property of the network,
    # so one representative workload keeps the sweep tractable.
    workload = suite(workloads)[0]
    runner = get_runner()
    configs = {
        label: parse_label(label, base).with_(p2p_pattern="promote")
        for label in TOPOLOGIES
    }

    keys: List[Tuple[str, float]] = []
    jobs: List[SimJob] = []
    for topo in TOPOLOGIES:
        for fraction in P2P_FRACTIONS:
            jobs.append(
                SimJob(
                    config=configs[topo],
                    workload=replace(workload, p2p_fraction=fraction),
                    requests=requests,
                )
            )
            keys.append((topo, fraction))
    results = dict(zip(keys, runner.run(jobs)))

    rows = []
    grid: Dict[str, Dict[float, float]] = {}
    hop_rows = []
    hops: Dict[str, Dict[float, float]] = {}
    for topo in TOPOLOGIES:
        row = [topo]
        hop_row = [topo]
        grid[topo] = {}
        hops[topo] = {}
        baseline_ps = results[(topo, 0.0)].runtime_ps
        for fraction in P2P_FRACTIONS:
            result = results[(topo, fraction)]
            slowdown = (result.runtime_ps / baseline_ps - 1.0) * 100.0
            grid[topo][fraction] = slowdown
            copies = result.extra.get("p2p.completed", 0.0)
            if fraction == 0.0:
                row.append(f"{to_ns(result.runtime_ps):7.0f}ns")
                hop_row.append("-")
                hops[topo][fraction] = 0.0
                continue
            breakdown = result.collector.p2p_breakdown
            p2p_ns = to_ns(
                breakdown.to_memory_hist.mean
                + breakdown.in_memory_hist.mean
                + breakdown.from_memory_hist.mean
            )
            mean_hops = result.collector.xfer_hops.mean
            hops[topo][fraction] = mean_hops
            row.append(f"{slowdown:+5.1f}% ({copies:.0f}c)")
            hop_row.append(f"{mean_hops:4.2f}h /{p2p_ns:6.0f}ns")
        rows.append(row)
        hop_rows.append(hop_row)

    runtime_table = render_table(
        ["configuration"] + [f"{fraction:g}" for fraction in P2P_FRACTIONS],
        rows,
        title=(
            f"P2P: runtime vs copy fraction ({workload.name}, promote "
            f"pattern; slowdown vs fraction=0, completed copies)"
        ),
    )
    hop_table = render_table(
        ["configuration"] + [f"{fraction:g}" for fraction in P2P_FRACTIONS],
        hop_rows,
        title=(
            f"P2P: mean transfer hops / copy latency ({workload.name})"
        ),
    )

    return ExperimentOutput(
        experiment_id="ablation_p2p",
        title="Peer-to-peer copies: runtime and transfer locality",
        text=runtime_table + "\n\n" + hop_table,
        data={"grid": grid, "xfer_hops": hops},
        notes=(
            "Expected: runtime shrinks as the copy fraction grows — each "
            "copy keeps its data off the host SerDes links, which are the "
            "bottleneck in every mixed-tier config.  Transfer hop counts "
            "separate the topologies: the chain walks its spine (~5 hops "
            "per promote), the skip-list expresses past it (<3), and "
            "copy latency rises gently with congestion on all of them."
        ),
    )
