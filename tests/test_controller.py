"""Tests for the quadrant memory controller."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbitration import ArbiterContext, RoundRobinArbiter
from repro.config import PacketConfig, dram_tech, nvm_tech
from repro.host.address_map import Location
from repro.memory.bank import Bank
from repro.memory.controller import QuadrantController
from repro.memory.timing import TimingModel
from repro.net.buffers import InputQueue
from repro.net.packet import Packet, PacketKind, Transaction
from repro.net.router import LOCAL, LocalOutput, Router
from repro.serialization import result_digest
from repro.sim.engine import Engine
from repro.system import MemoryNetworkSystem
from repro.units import ns

from conftest import fast_workload, small_config


def make_request(bank=0, row=0, is_write=False, address=0):
    txn = Transaction(address, is_write, port_id=0, issue_ps=0)
    txn.location = Location(cube_index=0, quadrant=0, bank=bank, row=row, offset=0)
    txn.dest_cube = 1
    kind = PacketKind.WRITE_REQ if is_write else PacketKind.READ_REQ
    packet = Packet(kind, address, 0, 1, 128, 0, transaction=txn)
    packet.route = [0, 1]
    packet.hop_index = 1
    return packet


class Harness:
    def __init__(self, tech=None, num_banks=4, queue_depth=8, scheduling="fcfs",
                 inject_capacity=8):
        self.engine = Engine()
        self.router = Router(1, "cube", lambda: RoundRobinArbiter(ArbiterContext()))
        self.inject = InputQueue("inject", inject_capacity)
        self.router.add_input(self.inject)
        self.sunk = []
        # a local output that immediately drains responses
        self.router.add_output(
            LOCAL, LocalOutput(lambda p: True, lambda e, p, i: self.sunk.append(p))
        )
        self.routed = []
        self.controller = QuadrantController(
            name="q0",
            timing=TimingModel(tech or dram_tech()),
            num_banks=num_banks,
            queue_depth=queue_depth,
            inject_queue=self.inject,
            router=self.router,
            route_response=self._route,
            packet_config=PacketConfig(),
            scheduling=scheduling,
        )

    def _route(self, response):
        response.route = [1]  # terminate at this node (drains to sink)
        response.hop_index = 0
        self.routed.append(response)

    def send(self, packet):
        self.controller.reserve()
        self.controller.receive(self.engine, packet)

    def run(self):
        self.engine.run()


class TestBasicService:
    def test_read_produces_response(self):
        h = Harness()
        h.send(make_request())
        h.run()
        assert len(h.sunk) == 1
        assert h.sunk[0].kind == PacketKind.READ_RESP
        assert h.controller.reads == 1

    def test_write_produces_ack(self):
        h = Harness()
        h.send(make_request(is_write=True))
        h.run()
        assert h.sunk[0].kind == PacketKind.WRITE_ACK
        assert h.controller.writes == 1

    def test_timestamps_recorded(self):
        h = Harness()
        packet = make_request()
        # Served request packets are recycled through the controller's
        # PacketPool, so hold the transaction, not the packet.
        txn = packet.transaction
        h.send(packet)
        h.run()
        assert txn.mem_depart_ps == dram_tech().trcd_ps + dram_tech().tcl_ps
        assert txn.dest_tech == "DRAM"
        assert txn.row_hit is False

    def test_row_hit_faster_second_access(self):
        h = Harness()
        first, second = make_request(row=3), make_request(row=3)
        txn1, txn2 = first.transaction, second.transaction
        h.send(first)
        h.send(second)
        h.run()
        t1 = txn1.mem_depart_ps
        t2 = txn2.mem_depart_ps
        assert txn2.row_hit
        assert t2 - t1 == dram_tech().tcl_ps

    def test_bank_parallelism_with_frfcfs(self):
        h = Harness(scheduling="frfcfs")
        a, b = make_request(bank=0), make_request(bank=1)
        txn_a, txn_b = a.transaction, b.transaction
        h.send(a)
        h.send(b)
        h.run()
        # both banks were accessed concurrently: same completion time
        assert txn_a.mem_depart_ps == txn_b.mem_depart_ps


class TestScheduling:
    def test_fcfs_head_of_line_blocks(self):
        nvm = nvm_tech()
        h = Harness(tech=nvm, scheduling="fcfs")
        write = make_request(bank=0, row=1, is_write=True)
        blocked_miss = make_request(bank=0, row=2)
        other_bank = make_request(bank=1, row=1)
        other_txn = other_bank.transaction
        h.send(write)
        h.send(blocked_miss)
        h.send(other_bank)
        h.run()
        # under strict FCFS the other-bank request waits behind the
        # blocked miss (which waits out tWR)
        assert other_txn.mem_depart_ps > ns(320)

    def test_frfcfs_bypasses_blocked_head(self):
        nvm = nvm_tech()
        h = Harness(tech=nvm, scheduling="frfcfs")
        write = make_request(bank=0, row=1, is_write=True)
        blocked_miss = make_request(bank=0, row=2)
        other_bank = make_request(bank=1, row=1)
        other_txn = other_bank.transaction
        h.send(write)
        h.send(blocked_miss)
        h.send(other_bank)
        h.run()
        assert other_txn.mem_depart_ps < ns(320)

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            Harness(scheduling="random")


class TestBackpressure:
    def test_can_accept_tracks_queue_and_reservations(self):
        h = Harness(queue_depth=2)
        assert h.controller.can_accept()
        h.controller.reserve()
        h.controller.reserve()
        assert not h.controller.can_accept()

    def test_responses_wait_for_inject_space(self):
        h = Harness(inject_capacity=1)
        # block the inject queue with a packet whose output never accepts
        h.router.add_output(99, LocalOutput(lambda p: False, lambda e, p, i: None))
        blocker = make_request()
        blocker.route = [1, 99]
        blocker.hop_index = 0  # at node 1, bound for the refusing output

        h.inject.push(blocker)  # occupies the single slot
        h.send(make_request(row=5))
        h.engine.run(until=ns(1000))
        assert h.controller.pending_responses == 1
        # draining the queue lets the response through
        h.inject.pop()
        h.controller._inject_drained(h.engine)
        h.engine.run()
        assert h.controller.pending_responses == 0


class TestRefresh:
    def test_refresh_scheduled_for_dram(self):
        h = Harness()
        h.controller.start_refresh(h.engine)
        h.engine.run(until=dram_tech().refresh_interval_ps * 2)
        assert h.controller.refreshes > 0

    def test_no_refresh_for_nvm(self):
        h = Harness(tech=nvm_tech())
        h.controller.start_refresh(h.engine)
        h.engine.run(until=ns(100_000))
        assert h.controller.refreshes == 0


def bank_state(bank):
    return (
        bank.array_busy_until,
        bank.buffer_busy_until,
        list(bank._open_rows),
        bank.accesses,
        bank.row_hits,
    )


def spy_eager_refresh(controller, engine):
    """Eagerly built reference banks that receive every refresh call the
    controller applies, bank by bank, as a fully built quadrant would.

    Returns the reference banks and a list of ``(tick_ps, now_ps)`` per
    applied tick (``tick_ps < now_ps`` marks a dormant replay)."""
    reference = [Bank() for _ in range(controller.num_banks)]
    groups = min(controller.REFRESH_GROUPS, controller.num_banks)
    duration = controller.timing.tech.refresh_duration_ps
    ticks = []
    apply_tick = controller._refresh_tick

    def spy(tick_ps):
        group = controller.refreshes % groups
        for index in range(group, controller.num_banks, groups):
            reference[index].refresh(tick_ps, duration)
        ticks.append((tick_ps, engine.now))
        apply_tick(tick_ps)

    controller._refresh_tick = spy
    return reference, ticks


class TestLazyBanks:
    # 12 banks over 8 refresh groups: groups 0-3 hold two banks, 4-7 one.
    NUM_BANKS = 12

    def _drive(self, steps):
        """Run ``(gap_ns, bank, burst)`` steps against a refreshing DRAM
        controller; each step first-touches ``bank`` (checked against the
        reference) and then queues ``burst`` row misses on it."""
        h = Harness(num_banks=self.NUM_BANKS, queue_depth=64)
        reference, ticks = spy_eager_refresh(h.controller, h.engine)
        h.controller.start_refresh(h.engine)
        h.engine.run(until=0)
        row = 0
        for gap_ns, index, burst in steps:
            h.engine.run(until=h.engine.now + ns(gap_ns))
            if index not in h.controller.banks:
                assert bank_state(h.controller.banks[index]) == bank_state(
                    reference[index]
                )
            for _ in range(burst):
                row += 1
                h.send(make_request(bank=index, row=row))
        h.run()
        for index in range(self.NUM_BANKS):
            if index not in h.controller.banks:
                assert bank_state(h.controller.banks[index]) == bank_state(
                    reference[index]
                )
        return h, ticks

    def test_first_touch_matches_eager_banks_after_replay_and_on_time_ticks(self):
        interval_ns = dram_tech().refresh_interval_ps // 1000
        # Dormant for over a full refresh interval, then a burst long
        # enough (~30 x tRAS) to keep the queue busy across on-time
        # ticks, with first touches of every group in between.
        steps = [(interval_ns + 300, 0, 30), (100, 8, 0), (200, 1, 0)]
        steps += [(interval_ns // 3, index, 1) for index in range(2, 12)]
        h, ticks = self._drive(steps)
        assert len(h.controller.banks) == self.NUM_BANKS
        on_time = [t for t, now in ticks if t == now]
        replayed = [t for t, now in ticks if t < now]
        assert len(on_time) > 1 and len(replayed) > 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4000),
                st.integers(min_value=0, max_value=NUM_BANKS - 1),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_first_touch_matches_eager_banks(self, steps):
        self._drive(steps)

    def test_fresh_system_builds_no_banks_and_matches_eager_build(self):
        lazy = MemoryNetworkSystem(small_config(), fast_workload(), requests=300)
        eager = MemoryNetworkSystem(small_config(), fast_workload(), requests=300)
        controllers = [
            (a, b)
            for cube_a, cube_b in zip(lazy.cubes.values(), eager.cubes.values())
            for a, b in zip(cube_a.controllers, cube_b.controllers)
        ]
        assert controllers
        for a, b in controllers:
            assert len(a.banks) == 0
            for index in range(b.num_banks):
                b.banks[index]  # build every bank up front, at time zero
        assert result_digest(lazy.run()) == result_digest(eager.run())
        for a, b in controllers:
            assert len(a.banks) < a.num_banks  # 300 requests touch few banks
            for index in range(a.num_banks):
                assert bank_state(a.banks[index]) == bank_state(b.banks[index])

    @pytest.mark.parametrize("index", [-1, 4, 100])
    def test_out_of_range_bank_raises(self, index):
        h = Harness(num_banks=4)
        with pytest.raises(IndexError):
            h.controller.banks[index]
        assert len(h.controller.banks) == 0

    def test_invalid_row_buffers_fail_at_construction(self):
        tech = dataclasses.replace(dram_tech(), row_buffers=0)
        with pytest.raises(ValueError):
            Harness(tech=tech)
