"""Tests for visualization, network stats, all-ports fleets, CLI, CSV."""

import csv

import pytest

from repro import visual
from repro.__main__ import main as cli_main
from repro.analysis.network_stats import (
    cube_stats,
    link_stats,
    render_cube_report,
    render_link_report,
    underutilized_links,
)
from repro.config import HostConfig, SystemConfig
from repro.experiments.base import ExperimentOutput
from repro.fleet import run_fleet, uniform_fleet
from repro.runner import ParallelRunner
from repro.system import MemoryNetworkSystem
from repro.topology import build_topology

from conftest import fast_workload, small_config


class TestVisual:
    def test_render_topology_mentions_all_cubes(self):
        topo = build_topology(small_config(topology="tree"))
        text = visual.render_topology(topo)
        assert "APU" in text
        for cube in topo.cube_ids():
            assert f"D{cube}" in text

    def test_render_topology_marks_nvm(self):
        topo = build_topology(small_config(dram_fraction=0.5))
        text = visual.render_topology(topo)
        assert "N" in text.split("links:")[0].replace("NVM", "")

    def test_render_topology_marks_interposer_links(self):
        topo = build_topology(small_config(topology="metacube"))
        text = visual.render_topology(topo)
        assert "~~" in text
        assert "sw" in text

    def test_render_skiplist_arcs(self):
        text = visual.render_skiplist(16)
        assert text.count("\\") == 5  # the Fig 8 skip set
        assert "APU--0" in text

    def test_render_skiplist_two_digit_alignment(self):
        lines = visual.render_skiplist(16).splitlines()
        base = lines[0]
        # the (12, 14) arc must start under "12" and end under "14"
        arc = lines[-2]
        assert base[arc.index("\\")] == "1"
        assert base[arc.index("/")] == "1"

    def test_distance_histogram(self):
        topo = build_topology(small_config(topology="chain"))
        text = visual.render_distance_histogram(topo)
        assert "mean distance" in text
        assert "#" in text


class TestNetworkStats:
    @pytest.fixture(scope="class")
    def finished_system(self):
        system = MemoryNetworkSystem(
            small_config(topology="tree"), fast_workload(), requests=300
        )
        system.run()
        return system

    def test_link_stats_cover_all_links(self, finished_system):
        stats = link_stats(finished_system)
        assert len(stats) == len(finished_system._links)
        assert all(0.0 <= s.utilization <= 1.0 for s in stats)
        assert any(s.packets > 0 for s in stats)

    def test_cube_stats_sum_to_transactions(self, finished_system):
        stats = cube_stats(finished_system)
        assert sum(s.accesses for s in stats) == 300
        assert all(s.tech == "DRAM" for s in stats)

    def test_underutilized_links_detects_leaf_links(self, finished_system):
        # leaf links in a tree see only their own cube's traffic
        assert underutilized_links(finished_system, threshold=0.9)

    def test_reports_render(self, finished_system):
        assert "utilization" in render_link_report(finished_system)
        assert "row hits" in render_cube_report(finished_system)


class TestMultiPort:
    """Every host port's MN, run as a fleet of identical shards."""

    @pytest.fixture(scope="class")
    def all_ports(self):
        config = small_config(host=HostConfig(num_ports=2))
        fleet = uniform_fleet(
            config.host.num_ports, config, fast_workload(), requests_per_shard=100
        )
        runner = ParallelRunner(jobs=1)
        shards = runner.run(fleet.compile())
        return fleet, run_fleet(fleet, runner=runner), shards

    def test_all_ports_complete(self, all_ports):
        fleet, result, shards = all_ports
        total = result.total
        assert total.shards == fleet.num_shards == 2
        assert total.requests == 2 * 100
        # the system finishes when its slowest port does
        assert total.runtime_ps_max == max(shard.runtime_ps for shard in shards)
        p50, p99 = total.percentile_ns(0.50), total.percentile_ns(0.99)
        assert 0 < p50 <= p99

    def test_ports_reasonably_balanced(self, all_ports):
        _, result, _ = all_ports
        total = result.total
        mean_runtime_ps = total.runtime_ps_total / total.shards
        assert total.runtime_ps_max / mean_runtime_ps < 1.5


class TestCli:
    def test_simulate_command(self, capsys):
        assert cli_main(
            ["simulate", "--topology", "tree", "--workload", "NW",
             "--requests", "100", "--links", "--cubes"]
        ) == 0
        out = capsys.readouterr().out
        assert "runtime" in out and "utilization" in out and "row hits" in out

    def test_simulate_with_label_and_arbiter(self, capsys):
        assert cli_main(
            ["simulate", "--label", "0%-T", "--arbiter", "distance",
             "--workload", "NW", "--requests", "80"]
        ) == 0
        assert "0%-T" in capsys.readouterr().out

    def test_show_command(self, capsys):
        assert cli_main(["show", "--topology", "skiplist"]) == 0
        assert "skip" in capsys.readouterr().out

    def test_workloads_command(self, capsys):
        assert cli_main(["workloads"]) == 0
        assert "KMEANS" in capsys.readouterr().out


class TestCsvExport:
    def test_series_extraction(self):
        output = ExperimentOutput(
            "figX", "t", "txt", data={"speedups": {"A": {"c1": 1.0}}}
        )
        assert output.series() == {"A": {"c1": 1.0}}

    def test_save_csv_roundtrip(self, tmp_path):
        output = ExperimentOutput(
            "figX",
            "t",
            "txt",
            data={"speedups": {"A": {"c1": 1.25, "c2": -0.5}}},
        )
        path = tmp_path / "out.csv"
        output.save_csv(path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["figX", "c1", "c2"]
        assert rows[1][0] == "A"
        assert float(rows[1][1]) == pytest.approx(1.25)

    def test_save_csv_empty_series(self, tmp_path):
        output = ExperimentOutput("figY", "t", "txt")
        path = tmp_path / "empty.csv"
        output.save_csv(path)
        assert "figY" in path.read_text()
