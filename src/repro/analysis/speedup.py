"""Speedup grids: workloads x configurations, normalized to a baseline.

A grid is one runner batch: :meth:`SpeedupGrid.run` returns every
point's result, :meth:`SpeedupGrid.speedups` builds on it, and
``render`` tabulates the speedups without simulating again.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.config import SystemConfig, parse_label
from repro.results import SimResult
from repro.runner import SimJob, get_runner
from repro.workloads import WorkloadSpec


class SpeedupGrid:
    """Run a set of MN configurations over a workload suite.

    All simulations go through the ambient runner, whose
    content-addressed cache means a baseline shared by several figures
    (or several grids) is only simulated once per cache lifetime.
    """

    def __init__(
        self,
        workloads: Sequence[WorkloadSpec],
        requests: int = 2000,
        base_config: Optional[SystemConfig] = None,
        config_fn: Optional[Callable[[str], SystemConfig]] = None,
    ) -> None:
        self.workloads = list(workloads)
        self.requests = requests
        self.base_config = base_config or SystemConfig()
        self.config_fn = config_fn or (
            lambda label: parse_label(label, self.base_config)
        )

    # ------------------------------------------------------------------
    def run(self, labels: Sequence[str]) -> Dict[str, Dict[str, SimResult]]:
        """Simulate every (label, workload) point as one batch.

        Returns ``{workload name: {label: result}}`` in workload and
        first-seen label order.
        """
        labels = list(dict.fromkeys(labels))
        points = [
            (workload, label) for workload in self.workloads for label in labels
        ]
        results = get_runner().run(
            [
                SimJob(self.config_fn(label), workload, self.requests)
                for workload, label in points
            ]
        )
        table: Dict[str, Dict[str, SimResult]] = {
            workload.name: {} for workload in self.workloads
        }
        for (workload, label), result in zip(points, results):
            table[workload.name][label] = result
        return table

    def speedups(
        self, labels: Sequence[str], baseline_label: str
    ) -> Dict[str, Dict[str, float]]:
        """Per-workload percent speedup of each label over the baseline."""
        table = self.run(list(labels) + [baseline_label])
        return {
            name: {
                label: row[label].speedup_over(row[baseline_label]) * 100.0
                for label in labels
            }
            for name, row in table.items()
        }

    def averages(
        self, grid: Dict[str, Dict[str, float]], labels: Sequence[str]
    ) -> Dict[str, float]:
        count = len(grid) or 1
        return {
            label: sum(row[label] for row in grid.values()) / count
            for label in labels
        }

    def render(
        self,
        grid: Dict[str, Dict[str, float]],
        labels: Sequence[str],
        title: str = "",
    ) -> str:
        """Table of a :meth:`speedups` grid with an average row."""
        rows: List[List[object]] = []
        for name, row in grid.items():
            rows.append([name] + [f"{row[label]:+.1f}%" for label in labels])
        averages = self.averages(grid, labels)
        rows.append(["average"] + [f"{averages[label]:+.1f}%" for label in labels])
        return render_table(["workload"] + list(labels), rows, title=title)
