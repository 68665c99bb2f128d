"""Ablation — the full arbitration design space of Section 4.1.

Compares all five arbiters: the round-robin baseline, the proposed
distance-based scheme and its enhanced variant, plus the two schemes
the paper discusses but rejects as impractical (true age-based, and
globally-weighted round robin), which serve as oracles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import SpeedupGrid, render_table
from repro.config import VALID_ARBITERS, SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.workloads import WorkloadSpec

TOPOLOGY_LABELS = ["100%-C", "100%-T", "50%-C (NVM-L)", "50%-T (NVM-F)"]


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)

    def config_fn(label: str) -> SystemConfig:
        topo_label, _, arbiter = label.partition("|")
        config = parse_label(topo_label, base)
        if arbiter:
            config = config.with_(arbiter=arbiter)
        return config

    grid = SpeedupGrid(
        suite(workloads), requests=requests, base_config=base, config_fn=config_fn
    )
    table = grid.run(
        [
            f"{topo_label}|{arbiter}"
            for topo_label in TOPOLOGY_LABELS
            for arbiter in ("round_robin",) + tuple(VALID_ARBITERS)
        ]
    )
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for topo_label in TOPOLOGY_LABELS:
        data[topo_label] = {}
        row = [topo_label]
        for arbiter in VALID_ARBITERS:
            deltas = [
                results[f"{topo_label}|{arbiter}"].speedup_over(
                    results[f"{topo_label}|round_robin"]
                ) * 100.0
                for results in table.values()
            ]
            mean = sum(deltas) / len(deltas)
            data[topo_label][arbiter] = mean
            row.append(f"{mean:+.2f}%")
        rows.append(row)
    text = render_table(
        ["configuration"] + list(VALID_ARBITERS),
        rows,
        title="Ablation: arbitration schemes vs round-robin (workload average)",
    )
    return ExperimentOutput(
        experiment_id="ablation_arbiters",
        title="Arbitration design space (Section 4.1 alternatives)",
        text=text,
        data={"delta": data},
        notes=(
            "age and global_weighted are the impractical oracles the paper "
            "rejects; distance should approach them."
        ),
    )
