"""Ablation — finer DRAM:NVM capacity ratio sweep on the tree.

The paper evaluates {0%, 50%, 100%}; this sweep adds 25% and 75% to
locate the crossover where network-size savings stop covering the NVM
array penalty.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import SpeedupGrid, render_table
from repro.config import NVM_LAST, TOPOLOGY_TREE, SystemConfig
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.workloads import WorkloadSpec

FRACTIONS = (1.0, 0.75, 0.50, 0.25, 0.0)


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    # keep only ratios that decompose into whole cubes for this system
    fractions = []
    for fraction in FRACTIONS:
        try:
            base.with_(dram_fraction=fraction).cube_counts()
        except Exception:
            continue
        fractions.append(fraction)

    def config_fn(label: str) -> SystemConfig:
        if label == "baseline":
            return base.with_(topology="chain", dram_fraction=1.0)
        return base.with_(
            topology=TOPOLOGY_TREE,
            dram_fraction=float(label),
            nvm_placement=NVM_LAST,
        )

    grid = SpeedupGrid(
        suite(workloads), requests=requests, base_config=base, config_fn=config_fn
    )
    table = grid.run(["baseline"] + [str(fraction) for fraction in fractions])
    rows = []
    data: Dict[str, Dict[float, float]] = {}
    for name, results in table.items():
        base_result = results["baseline"]
        data[name] = {}
        row = [name]
        for fraction in fractions:
            result = results[str(fraction)]
            speedup = result.speedup_over(base_result) * 100.0
            data[name][fraction] = speedup
            row.append(f"{speedup:+.1f}%")
        rows.append(row)
    averages = [
        sum(data[w][f] for w in data) / len(data) for f in fractions
    ]
    rows.append(["average"] + [f"{a:+.1f}%" for a in averages])
    text = render_table(
        ["workload"] + [f"{int(f * 100)}% DRAM" for f in fractions],
        rows,
        title="Ablation: DRAM fraction sweep on the tree (NVM-L), vs 100%-C",
    )
    return ExperimentOutput(
        experiment_id="ablation_ratio",
        title="DRAM:NVM ratio sweep",
        text=text,
        data={"grid": data, "averages": dict(zip(fractions, averages))},
    )
