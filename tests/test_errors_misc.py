"""Tests for the error hierarchy and small leftover utilities."""

import os

import pytest

from repro import errors, speedup_percent
from repro.results import EnergyReport, SimResult, TransactionCollector


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for klass in (
            errors.ConfigError,
            errors.TopologyError,
            errors.RoutingError,
            errors.SimulationError,
            errors.WorkloadError,
        ):
            assert issubclass(klass, errors.ReproError)
            assert issubclass(klass, Exception)

    def test_catchable_by_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.TopologyError("boom")

    def test_distinct_types(self):
        with pytest.raises(errors.ConfigError):
            raise errors.ConfigError("x")
        assert not issubclass(errors.ConfigError, errors.TopologyError)


def _result(runtime_ps):
    return SimResult(
        config_label="x",
        workload="w",
        runtime_ps=runtime_ps,
        collector=TransactionCollector(),
        energy=EnergyReport(),
        mean_distance=1.0,
        max_distance=1.0,
    )


class TestSpeedupPercent:
    def test_positive(self):
        assert speedup_percent(_result(100), _result(150)) == pytest.approx(50.0)

    def test_negative(self):
        assert speedup_percent(_result(200), _result(100)) == pytest.approx(-50.0)

    def test_zero_runtime_guard(self):
        assert _result(0).speedup_over(_result(100)) == 0.0


class TestExperimentsCli:
    def test_list_command(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "table01" in out

    def test_engine_flag_takes_the_scheduler_list(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        # setenv first so the flag's export is undone after the test.
        monkeypatch.setenv("REPRO_ENGINE", "heap")
        assert main(["list", "--engine", "native"]) == 0
        assert os.environ["REPRO_ENGINE"] == "native"
        with pytest.raises(SystemExit) as exc:
            main(["list", "--engine", "batch"])
        assert exc.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err

    def test_single_experiment_with_workload_subset(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table02"]) == 0
        assert "tRCD" in capsys.readouterr().out

    def test_fast_figure_run(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig08", "--requests", "10"]) == 0
        assert "APU--0" in capsys.readouterr().out

    def test_status_lines_report_per_experiment_cache_deltas(
        self, monkeypatch, capsys
    ):
        import re

        import repro.experiments.__main__ as cli
        from repro.runner import reset_runner

        # "all" over two experiments: the repeat is served from the
        # in-memory layer, so its line must show only its own lookups.
        monkeypatch.setattr(cli, "experiment_ids", lambda: ["fig04", "fig04"])
        argv = ["all", "--requests", "10", "--workloads", "KMEANS", "--no-cache"]
        try:
            assert cli.main(argv) == 0
        finally:
            reset_runner()
        lines = re.findall(
            r"\[fig04 completed in [\d.]+s — (\d+) simulations run, jobs=\d+, "
            r"cache\[memory only\]: (\d+) memory hits, (\d+) disk hits, "
            r"(\d+) misses\]",
            capsys.readouterr().out,
        )
        assert len(lines) == 2
        (sims1, hits1, disk1, miss1), (sims2, hits2, disk2, miss2) = [
            tuple(map(int, line)) for line in lines
        ]
        assert sims1 == miss1 > 0 and disk1 == 0
        # process totals would repeat the first line's misses here
        assert (sims2, disk2, miss2) == (0, 0, 0)
        assert hits2 == hits1 + miss1


class TestReproCli:
    def test_choices_come_from_the_config_constants(self, capsys):
        from repro.__main__ import main
        from repro.config import VALID_ARBITERS, VALID_TOPOLOGIES

        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--arbiter", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(arbiter) in err for arbiter in VALID_ARBITERS)
        for command in ("simulate", "show", "selfcheck"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--topology", "torus"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice: 'torus'" in err
            assert all(repr(topology) in err for topology in VALID_TOPOLOGIES)

    def test_valid_arbiter_runs(self, capsys):
        from repro.__main__ import main

        assert main(["simulate", "--arbiter", "age", "--requests", "20"]) == 0
        assert "(age)" in capsys.readouterr().out
