"""Fig 7 — tree topology with different DRAM:NVM capacity ratios.

Paper shape: mixing in NVM is workload-dependent but roughly
competitive with all-DRAM (the 50% NVM-L tree is best on average in
the paper); the all-NVM tree varies strongly with workload and hurts
the lowest-contention workload (NW).
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

LABELS = ["100%-T", "50%-T (NVM-L)", "50%-T (NVM-F)", "0%-T"]
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
        title="Fig 7: tree topology with DRAM:NVM ratios, vs 100% chain",
    )
    return ExperimentOutput(
        experiment_id="fig07",
        title="Tree-based topology with different ratios of DRAM to NVM",
        text=text,
        data={"speedups": speedups, "averages": averages},
        notes=(
            "Expected shape (paper): some NVM is beneficial (50% mixes "
            "competitive with 100% DRAM thanks to the smaller network); "
            "0%-T varies highly with the workload."
        ),
    )
