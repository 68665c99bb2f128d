"""Fig 12 — all techniques combined.

The proposed topologies (tree / skip-list / MetaCube) run with the
*enhanced* distance-based arbitration (type- and technology-aware,
Section 5.3), and skip-lists additionally enable read-priority
injection and the write-burst hysteresis that re-admits writes to skip
paths.

Paper shape: everything improves over Fig 11; the skip-list gains the
most (notably in 50% NVM-L mixes); the most write-intensive workload
(BACKPROP) benefits most overall.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis import SpeedupGrid
from repro.config import (
    ARBITER_DISTANCE_ENHANCED,
    TOPOLOGY_SKIPLIST,
    SystemConfig,
    parse_label,
)
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    NORMALIZATION_BASELINE,
    PROPOSED_CONFIGS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.workloads import WorkloadSpec


def combined_config(label: str, base: SystemConfig) -> SystemConfig:
    """Build the all-techniques configuration for a paper-style label.

    The normalization baseline (100%-C) stays on round-robin — Fig 12
    normalizes to the *unmodified* chain.
    """
    config = parse_label(label, base)
    if label == NORMALIZATION_BASELINE:
        return config
    config = config.with_(arbiter=ARBITER_DISTANCE_ENHANCED)
    if config.topology == TOPOLOGY_SKIPLIST:
        config = config.with_(
            write_skip_hysteresis=True,
            host=replace(config.host, read_priority_injection=True),
        )
    return config


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    grid = SpeedupGrid(
        suite(workloads),
        requests=requests,
        base_config=base,
        config_fn=lambda label: combined_config(label, base),
    )
    speedups = grid.speedups(PROPOSED_CONFIGS, NORMALIZATION_BASELINE)
    averages = grid.averages(speedups, PROPOSED_CONFIGS)
    text = grid.render(
        speedups,
        PROPOSED_CONFIGS,
        title=(
            "Fig 12: all techniques combined (enhanced distance arbitration), "
            "vs 100% chain"
        ),
    )
    return ExperimentOutput(
        experiment_id="fig12",
        title="All proposed techniques combined",
        text=text,
        data={"speedups": speedups, "averages": averages},
        notes=(
            "Expected shape (paper): better than the Fig 11 equivalents on "
            "average, with the skip-list improving the most (write "
            "deprioritization + hysteresis)."
        ),
    )
