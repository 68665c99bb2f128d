"""Tests for the directory and host port behaviour."""

import pytest

from repro.config import HostConfig, SystemConfig
from repro.host.directory import Directory
from repro.net.packet import READ, WRITE
from repro.system import MemoryNetworkSystem
from repro.units import GIB_BYTES
from repro.workloads import Request, WorkloadSpec

from conftest import fast_workload, small_config


class TestDirectory:
    def test_read_blocked_by_outstanding_write(self):
        directory = Directory()
        directory.issued(0x100, is_write=True)
        assert not directory.can_issue(0x100, is_write=False)
        directory.completed(0x100, is_write=True)
        assert directory.can_issue(0x100, is_write=False)

    def test_write_blocked_by_outstanding_write(self):
        directory = Directory()
        directory.issued(0x100, is_write=True)
        assert not directory.can_issue(0x100, is_write=True)

    def test_reads_never_block_reads(self):
        directory = Directory()
        assert directory.can_issue(0x100, is_write=False)
        assert directory.can_issue(0x100, is_write=False)

    def test_line_granularity(self):
        directory = Directory(line_bytes=64)
        directory.issued(0x100, is_write=True)
        assert not directory.can_issue(0x13F, is_write=False)  # same line
        assert directory.can_issue(0x140, is_write=False)  # next line

    def test_multiple_writes_same_line(self):
        directory = Directory()
        directory.issued(0x0, True)
        directory.issued(0x0, True)
        directory.completed(0x0, True)
        assert not directory.can_issue(0x0, False)
        directory.completed(0x0, True)
        assert directory.can_issue(0x0, False)

    def test_stall_counter(self):
        directory = Directory()
        directory.issued(0x0, True)
        directory.can_issue(0x0, False)
        directory.can_issue(0x0, False)
        assert directory.stalled_reads == 2

    def test_outstanding_writes(self):
        directory = Directory()
        directory.issued(0x0, True)
        directory.issued(0x40, True)
        assert directory.outstanding_writes == 2

    def test_reads_do_not_register(self):
        directory = Directory()
        directory.issued(0x0, False)
        assert directory.outstanding_writes == 0

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            Directory(line_bytes=100)


def run_system(config=None, workload=None, requests=200, workload_iter=None):
    system = MemoryNetworkSystem(
        config or small_config(),
        workload or fast_workload(),
        requests=requests,
        workload_iter=workload_iter,
    )
    result = system.run()
    return system, result


class TestHostPort:
    def test_all_transactions_complete(self):
        system, result = run_system(requests=300)
        assert result.transactions == 300
        assert system.port.outstanding == 0
        assert not system.port.pending

    def test_window_respected(self):
        """Read MLP never exceeds the configured window."""
        spec = fast_workload(mlp=4, read_fraction=1.0, mean_gap_ns=0.5)
        system = MemoryNetworkSystem(small_config(), spec, requests=100)
        max_seen = []
        original = system.port.try_inject

        def spy(engine):
            original(engine)
            max_seen.append(system.port.outstanding_by[READ])

        system.port.try_inject = spy
        system.run()
        assert max(max_seen) <= 4

    def test_store_buffer_respected(self):
        host = HostConfig(store_buffer_entries=2)
        spec = fast_workload(read_fraction=0.0, mean_gap_ns=0.2)
        system = MemoryNetworkSystem(
            small_config(host=host), spec, requests=100
        )
        max_seen = []
        original = system.port.try_inject

        def spy(engine):
            original(engine)
            max_seen.append(system.port.outstanding_by[WRITE])

        system.port.try_inject = spy
        system.run()
        assert max(max_seen) <= 2

    def test_rmw_coherence_orders_read_after_write(self):
        """A read to a line with an in-flight write completes after it."""
        requests_list = [
            Request(address=0x40, is_write=True, gap_ps=0),
            Request(address=0x40, is_write=False, gap_ps=0),
        ]
        txns = []
        system = MemoryNetworkSystem(
            small_config(),
            fast_workload(),
            requests=2,
            workload_iter=iter(requests_list),
        )
        original = system._transaction_done

        def capture(engine, txn):
            txns.append(txn)
            original(engine, txn)

        system.port.on_transaction_done = capture
        system.run()
        write = next(t for t in txns if t.is_write)
        read = next(t for t in txns if not t.is_write)
        assert read.start_ps >= write.complete_ps

    def test_hysteresis_toggles_on_write_bursts(self):
        config = small_config(
            topology="skiplist",
            write_skip_hysteresis=True,
            hysteresis_window=16,
        )
        spec = fast_workload(read_fraction=0.2, mean_gap_ns=1.0)
        system, result = run_system(config, spec, requests=400)
        assert system.port.write_burst_mode or result.burst_mode_toggles > 0

    def test_hysteresis_disabled_by_default(self):
        system, result = run_system(requests=100)
        assert result.burst_mode_toggles == 0

    def test_port_latency_floor(self):
        """Every transaction pays the on-chip port latency twice."""
        config = small_config()
        system, result = run_system(config, requests=50)
        floor = 2 * config.host.port_latency_ps
        breakdown = result.collector.all
        assert breakdown.to_memory_hist.min >= config.host.port_latency_ps
        assert result.collector.all.total_ns * 1000 >= floor
