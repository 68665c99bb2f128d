"""Ablation — router input-buffer depth.

Input buffers absorb bursts and carry the credit loop; too few slots
stall links on credits, while very deep buffers stop mattering once the
MLP window bounds the packets in flight.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.analysis import SpeedupGrid, render_table
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.workloads import WorkloadSpec, get_workload

DEPTHS = (1, 2, 4, 8, 16)


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    workload = (suite(workloads) or [get_workload("KMEANS")])[0]

    def config_fn(label: str) -> SystemConfig:
        topo_label, _, depth = label.partition("|")
        config = parse_label(topo_label, base)
        if depth:
            config = config.with_(
                link=replace(config.link, input_buffer_packets=int(depth))
            )
        return config

    grid = SpeedupGrid(
        [workload], requests=requests, base_config=base, config_fn=config_fn
    )
    results = grid.run(
        [f"{topo}|{depth}" for topo in ("100%-C", "100%-T") for depth in DEPTHS]
    )[workload.name]
    data: Dict[str, Dict[int, float]] = {}
    rows = []
    for topo in ("100%-C", "100%-T"):
        data[topo] = {}
        reference = results[f"{topo}|8"]
        row = [topo]
        for depth in DEPTHS:
            result = results[f"{topo}|{depth}"]
            delta = result.speedup_over(reference) * 100.0
            data[topo][depth] = delta
            row.append(f"{delta:+.1f}%")
        rows.append(row)
    text = render_table(
        ["configuration"] + [f"{d} slots" for d in DEPTHS],
        rows,
        title=(
            f"Ablation: input-buffer depth on {workload.name} "
            "(speedup vs the default 8 slots)"
        ),
    )
    return ExperimentOutput(
        experiment_id="ablation_buffers",
        title="Router input-buffer depth sweep",
        text=text,
        data={"grid": data},
        notes="Single-slot buffers throttle links on credits; depth beyond "
        "the window's needs is wasted SRAM.",
    )
