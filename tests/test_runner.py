"""Tests for the runner subsystem: job digests, caching, parallelism.

The load-bearing property is determinism: the same job must produce a
bit-identical ``SimResult`` whether it runs serially in-process, comes
out of the in-memory cache, round-trips through the disk cache, or runs
in a worker process.  Equality is asserted on
:func:`repro.serialization.result_digest`.
"""

import dataclasses
import json

import pytest

from repro.config import SystemConfig
from repro.experiments.base import ExperimentOutput
from repro.net.routing import cached_bfs_paths, clear_route_cache
from repro.runner import (
    ParallelRunner,
    ResultCache,
    SimJob,
    canonical_tree,
    execute_job,
    using_runner,
)
from repro.serialization import (
    result_digest,
    result_from_state,
    result_to_state,
)
from repro.sweep import Sweep
from repro.system import simulate

from conftest import fast_workload, small_config


def job(**overrides) -> SimJob:
    requests = overrides.pop("requests", 60)
    return SimJob(
        config=small_config(**overrides),
        workload=fast_workload(),
        requests=requests,
    )


class TestSimJobDigest:
    def test_equal_jobs_equal_digests(self):
        assert job().digest() == job().digest()

    def test_construction_order_irrelevant(self):
        forward = small_config().with_(topology="tree").with_(arbiter="distance")
        backward = small_config().with_(arbiter="distance").with_(topology="tree")
        a = SimJob(forward, fast_workload(), 60)
        b = SimJob(backward, fast_workload(), 60)
        assert a.digest() == b.digest()

    def test_top_level_field_changes_digest(self):
        assert job().digest() != job(topology="tree").digest()

    def test_nested_field_changes_digest(self):
        base = small_config()
        tweaked = base.with_(
            link=dataclasses.replace(base.link, serdes_latency_ps=0)
        )
        assert (
            SimJob(base, fast_workload(), 60).digest()
            != SimJob(tweaked, fast_workload(), 60).digest()
        )

    def test_every_config_field_invalidates(self):
        # a job digest must cover the whole config tree: flipping any
        # scalar top-level field must produce a new cache key
        base = job().digest()
        for field in dataclasses.fields(SystemConfig):
            value = getattr(small_config(), field.name)
            if isinstance(value, bool):
                changed = not value
            elif isinstance(value, int):
                changed = value + 1
            elif isinstance(value, float):
                changed = value / 2 + 0.01
            elif isinstance(value, str):
                changed = value + "_x"
            else:
                continue  # sub-configs covered by the nested test
            assert job(**{field.name: changed}).digest() != base, field.name

    def test_requests_and_workload_change_digest(self):
        assert job().digest() != job(requests=61).digest()
        other = SimJob(
            small_config(), fast_workload(read_fraction=0.5), 60
        )
        assert job().digest() != other.digest()

    def test_canonical_tree_is_json_stable(self):
        tree = canonical_tree(small_config())
        assert json.dumps(tree, sort_keys=True) == json.dumps(
            canonical_tree(small_config()), sort_keys=True
        )


class TestResultStateRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_job(job())

    def test_round_trip_preserves_digest(self, result):
        restored = result_from_state(
            json.loads(json.dumps(result_to_state(result)))
        )
        assert result_digest(restored) == result_digest(result)

    def test_round_trip_preserves_metrics(self, result):
        restored = result_from_state(result_to_state(result))
        assert restored.runtime_ps == result.runtime_ps
        assert restored.mean_latency_ns == result.mean_latency_ns
        assert restored.row_hit_rate == result.row_hit_rate
        assert restored.energy.total_pj == result.energy.total_pj
        assert restored.collector.count == result.collector.count

    def test_version_mismatch_rejected(self, result):
        state = result_to_state(result)
        state["version"] = -1
        with pytest.raises(ValueError):
            result_from_state(state)


class TestResultCache:
    def test_memory_hit(self):
        cache = ResultCache()
        result = execute_job(job())
        cache.put("abc", result)
        assert cache.get("abc") is result
        assert cache.memory_hits == 1

    def test_disk_round_trip_identical_digest(self, tmp_path):
        result = execute_job(job())
        writer = ResultCache(tmp_path)
        writer.put("d" * 64, result)
        reader = ResultCache(tmp_path)  # fresh memory layer
        loaded = reader.get("d" * 64)
        assert loaded is not None
        assert reader.disk_hits == 1
        assert result_digest(loaded) == result_digest(result)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("e" * 64, execute_job(job()))
        path = cache._path("e" * 64)
        path.write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.get("e" * 64) is None
        assert not path.exists()  # corrupt file removed

    def test_miss_counted(self):
        cache = ResultCache()
        assert cache.get("nope") is None
        assert cache.misses == 1


class TestParallelRunner:
    def test_dedupes_identical_jobs(self):
        runner = ParallelRunner(jobs=1)
        results = runner.run([job(), job(), job()])
        assert runner.simulations_run == 1
        assert results[0] is results[1] is results[2]

    def test_results_in_input_order(self):
        chain, tree = job(), job(topology="tree")
        runner = ParallelRunner(jobs=1)
        results = runner.run([tree, chain, tree])
        assert results[0].config_label == "100%-T"
        assert results[1].config_label == "100%-C"
        assert results[2] is results[0]

    def test_cache_hit_skips_simulation(self):
        runner = ParallelRunner(jobs=1)
        runner.run([job()])
        runner.run([job()])
        assert runner.simulations_run == 1

    def test_pool_matches_serial_bitwise(self):
        # the acceptance property: worker processes reproduce the serial
        # result exactly (per-job seeds derive from the config)
        jobs = [job(), job(topology="tree"), job(arbiter="distance")]
        serial = ParallelRunner(jobs=1).run(jobs)
        parallel = ParallelRunner(jobs=2).run(jobs)
        for s, p in zip(serial, parallel):
            assert result_digest(s) == result_digest(p)

    def test_disk_cache_matches_live_run_bitwise(self, tmp_path):
        first = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        live = first.run([job()])[0]
        second = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        cached = second.run([job()])[0]
        assert second.simulations_run == 0
        assert result_digest(cached) == result_digest(live)

    def test_simulate_uses_ambient_runner(self):
        with using_runner(ParallelRunner(jobs=1)) as runner:
            a = simulate(small_config(), fast_workload(), requests=60)
            b = simulate(small_config(), fast_workload(), requests=60)
            assert a is b
            assert runner.simulations_run == 1


class TestSweepThroughRunner:
    def test_parallel_serial_rows_identical(self):
        def rows(jobs):
            with using_runner(ParallelRunner(jobs=jobs)):
                return (
                    Sweep(fast_workload(), requests=60, base_config=small_config())
                    .over("topology", ["chain", "tree"])
                    .run()
                )

        assert rows(1) == rows(2)

    def test_error_rows_have_no_nan_rendering(self):
        sweep = Sweep(
            fast_workload(), requests=50, base_config=small_config()
        ).over("dram_fraction", [1.0, 0.37])
        rows = sweep.run(skip_invalid=False)
        assert len(rows) == 2
        assert "error" in rows[1]
        text = sweep.render(rows)
        assert "nan" not in text
        assert "error" in text

    def test_identical_points_simulated_once(self):
        with using_runner(ParallelRunner(jobs=1)) as runner:
            (
                Sweep(fast_workload(), requests=50, base_config=small_config())
                .over("topology", ["chain", "chain"])
                .run()
            )
            assert runner.simulations_run == 1


class TestExperimentDeterminism:
    def test_experiment_series_identical_serial_cached_parallel(self):
        from repro.experiments import get_experiment

        run = get_experiment("fig04")
        kwargs = dict(
            requests=60,
            workloads=[fast_workload()],
            base_config=small_config(),
        )
        with using_runner(ParallelRunner(jobs=1)):
            serial = run(**kwargs)
            cached = run(**kwargs)  # second pass: pure cache hits
        with using_runner(ParallelRunner(jobs=2)):
            parallel = run(**kwargs)
        assert serial.data == cached.data == parallel.data
        assert serial.text == cached.text == parallel.text


class TestCsvColumnOrder:
    def test_numeric_labels_sorted_numerically(self, tmp_path):
        output = ExperimentOutput(
            experiment_id="t",
            title="t",
            text="t",
            data={"grid": {"row": {2: 1.0, 10: 2.0, 16: 3.0}}},
        )
        path = tmp_path / "out.csv"
        output.save_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[1:] == ["2", "10", "16"]

    def test_string_labels_sorted_lexically(self, tmp_path):
        output = ExperimentOutput(
            experiment_id="t",
            title="t",
            text="t",
            data={"grid": {"row": {"b": 1.0, "a": 2.0}}},
        )
        path = tmp_path / "out.csv"
        output.save_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[1:] == ["a", "b"]


class TestRouteCache:
    def test_same_adjacency_shares_tree(self):
        clear_route_cache()
        adjacency = {0: [1], 1: [0, 2], 2: [1]}
        first = cached_bfs_paths(adjacency, 0)
        second = cached_bfs_paths(dict(adjacency), 0)
        assert first is second
        assert first[2] == (0, 1, 2)

    def test_different_source_distinct(self):
        clear_route_cache()
        adjacency = {0: [1], 1: [0, 2], 2: [1]}
        assert cached_bfs_paths(adjacency, 0) is not cached_bfs_paths(
            adjacency, 2
        )

    def test_repeated_system_builds_hit_cache(self):
        from repro.net import routing
        from repro.system import MemoryNetworkSystem

        clear_route_cache()
        MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
        size = len(routing._BFS_CACHE)
        assert size > 0
        MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
        assert len(routing._BFS_CACHE) == size  # no recompute, no growth


class TestCli:
    def test_jobs_and_cache_flags(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        from repro.runner import reset_runner

        argv = [
            "fig04",
            "--requests",
            "40",
            "--workloads",
            "KMEANS",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        try:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert "simulations run" in first
            # back-to-back second invocation: everything from disk
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert "0 simulations run" in second
        finally:
            reset_runner()

    def test_invalid_experiment_still_errors(self):
        from repro.errors import ConfigError as CE
        from repro.experiments.__main__ import main
        from repro.runner import reset_runner

        try:
            with pytest.raises(CE):
                main(["fig99"])
        finally:
            reset_runner()
