"""Fig 11 — Tree vs Skip-List vs MetaCube (round-robin arbitration).

Paper shape: MetaCubes outperform every other topology in every run
(lowest hop count); the skip-list performs close to the tree, with its
largest benefit in NVM-L mixes (writes pushed down the chain stop
blocking reads at cube input ports); for MetaCubes, all-DRAM beats the
NVM mixes because the hop count is low enough that array latency
starts to dominate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis import SpeedupGrid
from repro.config import SystemConfig
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    NORMALIZATION_BASELINE,
    PROPOSED_CONFIGS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.workloads import WorkloadSpec


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    grid = SpeedupGrid(
        suite(workloads), requests=requests, base_config=base_system(base_config)
    )
    speedups = grid.speedups(PROPOSED_CONFIGS, NORMALIZATION_BASELINE)
    averages = grid.averages(speedups, PROPOSED_CONFIGS)
    text = grid.render(
        speedups,
        PROPOSED_CONFIGS,
        title=(
            "Fig 11: Tree vs SkipList vs MetaCube (round-robin arbitration), "
            "vs 100% chain"
        ),
    )
    return ExperimentOutput(
        experiment_id="fig11",
        title="Skip-list and MetaCube topologies vs the tree",
        text=text,
        data={"speedups": speedups, "averages": averages},
        notes=(
            "Expected shape (paper): MetaCube best overall; skip-list close "
            "to tree (ahead for write-heavy workloads); 100%-MC beats the "
            "MC NVM mixes."
        ),
    )
