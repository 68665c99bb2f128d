"""Fig 4 — speedup of DRAM-only Ring and Tree MNs over the Chain.

Paper shape: the tree always wins (roughly 20-35%), the ring sits in
between (roughly 5-15%), and the chain is always the slowest.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis import SpeedupGrid
from repro.config import SystemConfig
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.workloads import WorkloadSpec

LABELS = ["100%-R", "100%-T"]
BASELINE = "100%-C"


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    grid = SpeedupGrid(
        suite(workloads), requests=requests, base_config=base_system(base_config)
    )
    speedups = grid.speedups(LABELS, BASELINE)
    averages = grid.averages(speedups, LABELS)
    text = grid.render(
        speedups,
        LABELS,
        title="Fig 4: speedup of DRAM memory networks over a chain topology",
    )
    return ExperimentOutput(
        experiment_id="fig04",
        title="Speedup comparison of DRAM MNs normalized to chain",
        text=text,
        data={"speedups": speedups, "averages": averages},
        notes=(
            "Expected shape (paper): Tree > Ring > Chain for every workload; "
            "NW (lowest network load) benefits the least."
        ),
    )
