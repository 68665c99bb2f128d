"""Fig 10 — distance-based arbitration on the baseline topologies.

For each of the 12 baseline configurations (chain/ring/tree x NVM
ratios/placements), this measures the speedup obtained by replacing the
locally-fair round-robin arbiter with the naive distance-based arbiter
of Section 4.1.

Paper shape: mixed results — gains for most configurations (strongest
where the parking-lot problem is worst), but NVM-F placements can
degrade because pure distance mispredicts the age of responses from
slow NVM cubes sitting close to the host.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import SpeedupGrid, render_table
from repro.config import ARBITER_DISTANCE, SystemConfig, parse_label
from repro.experiments.base import (
    BASELINE_CONFIGS,
    DEFAULT_REQUESTS,
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
    base = base_system(base_config)

    def config_fn(label: str) -> SystemConfig:
        if label.endswith("+DA"):
            return parse_label(label[: -len("+DA")], base).with_(
                arbiter=ARBITER_DISTANCE
            )
        return parse_label(label, base)

    grid = SpeedupGrid(
        suite(workloads), requests=requests, base_config=base, config_fn=config_fn
    )
    table = grid.run(
        BASELINE_CONFIGS + [label + "+DA" for label in BASELINE_CONFIGS]
    )
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for name, results in table.items():
        row = [name]
        data[name] = {}
        for label in BASELINE_CONFIGS:
            rr = results[label]
            da = results[label + "+DA"]
            delta = da.speedup_over(rr) * 100.0
            data[name][label] = delta
            row.append(f"{delta:+.1f}%")
        rows.append(row)
    averages = {
        label: sum(data[w][label] for w in data) / len(data)
        for label in BASELINE_CONFIGS
    }
    rows.append(
        ["average"] + [f"{averages[label]:+.1f}%" for label in BASELINE_CONFIGS]
    )
    text = render_table(
        ["workload"] + BASELINE_CONFIGS,
        rows,
        title="Fig 10: speedup of distance-based arbitration over round-robin",
    )
    return ExperimentOutput(
        experiment_id="fig10",
        title="Distance-based arbitration vs locally-fair round-robin",
        text=text,
        data={"delta": data, "averages": averages},
        notes=(
            "Expected shape (paper): modest gains for most configurations; "
            "NVM-F placements benefit least (distance mispredicts age when "
            "slow cubes sit near the host)."
        ),
    )
