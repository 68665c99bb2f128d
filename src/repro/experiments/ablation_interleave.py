"""Ablation — address-interleaving granularity (Section 5 discussion).

The paper chose 256 B empirically: 64 B hurts row-buffer locality in
the cubes; 1 KiB concentrates bursts on one cube and raises network
latency.
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
from repro.workloads import WorkloadSpec

GRANULARITIES = (64, 256, 1024)


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)

    def config_fn(label: str) -> SystemConfig:
        topo_label, _, grain = label.partition("|")
        config = parse_label(topo_label, base)
        if grain:
            config = config.with_(
                host=replace(config.host, interleave_bytes=int(grain))
            )
        return config

    grid = SpeedupGrid(
        suite(workloads), requests=requests, base_config=base, config_fn=config_fn
    )
    table = grid.run(
        ["100%-T|256"] + [f"100%-T|{grain}" for grain in GRANULARITIES]
    )
    rows = []
    data: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name, results in table.items():
        data[name] = {}
        base_result = results["100%-T|256"]
        for grain in GRANULARITIES:
            result = results[f"100%-T|{grain}"]
            data[name][grain] = {
                "speedup_vs_256": result.speedup_over(base_result) * 100.0,
                "row_hit_rate": result.row_hit_rate * 100.0,
                "latency_ns": result.mean_latency_ns,
            }
        rows.append(
            [name]
            + [
                f"{data[name][g]['speedup_vs_256']:+.1f}% "
                f"(hit {data[name][g]['row_hit_rate']:.0f}%)"
                for g in GRANULARITIES
            ]
        )
    text = render_table(
        ["workload"] + [f"{g} B" for g in GRANULARITIES],
        rows,
        title="Ablation: interleave granularity on 100%-T (speedup vs 256 B)",
    )
    return ExperimentOutput(
        experiment_id="ablation_interleave",
        title="Interleave granularity sweep",
        text=text,
        data={"grid": data},
        notes="Expected: 256 B is the sweet spot the paper found empirically.",
    )
