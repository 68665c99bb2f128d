"""Tests for the memory cube assembly (router + quadrant controllers)."""

import pytest

from repro.arbitration import ArbiterContext, RoundRobinArbiter
from repro.config import CubeConfig, PacketConfig, dram_tech, nvm_tech
from repro.host.address_map import Location
from repro.memory.cube import LOCAL_INPUTS, MemoryCube
from repro.net.buffers import InputQueue
from repro.net.packet import Packet, PacketKind, Transaction
from repro.net.router import Router
from repro.sim.engine import Engine


def build_cube(tech=None, cube_config=None, bank_scale=1.0):
    engine = Engine()
    router = Router(1, "cube1", lambda: RoundRobinArbiter(ArbiterContext()))
    responses = []

    def route_response(packet):
        # responses head "back to the host" (node 0), where a sink
        # output collects them
        packet.route = [1, 0]
        packet.hop_index = 0

    cube = MemoryCube(
        node_id=1,
        tech=tech or dram_tech(),
        cube_config=cube_config or CubeConfig(),
        packet_config=PacketConfig(),
        router=router,
        route_response=route_response,
        bank_scale=bank_scale,
    )
    from repro.net.router import LocalOutput

    router.add_output(
        0, LocalOutput(lambda p: True, lambda e, p, i: responses.append(p))
    )
    return engine, router, cube, responses


def request_for(quadrant, bank=0, row=0, is_write=False):
    txn = Transaction(0, is_write, port_id=0, issue_ps=0)
    txn.location = Location(0, quadrant, bank, row, 0)
    txn.dest_cube = 1
    kind = PacketKind.WRITE_REQ if is_write else PacketKind.READ_REQ
    packet = Packet(kind, 0, 0, 1, 128, 0, transaction=txn)
    packet.route = [0, 1]
    packet.hop_index = 1  # already delivered to the cube
    return packet


class TestConstruction:
    def test_four_local_inputs_first(self):
        _, router, cube, _ = build_cube()
        assert len(cube.controllers) == 4
        assert len(router.inputs) == LOCAL_INPUTS
        assert router.inputs[0].name.endswith("q0.inject")

    def test_bank_scale_halves_banks(self):
        _, _, full, _ = build_cube()
        _, _, half, _ = build_cube(bank_scale=0.5)
        assert half.controllers[0].num_banks == full.controllers[0].num_banks // 2

    def test_bank_scale_floor_of_one(self):
        _, _, cube, _ = build_cube(bank_scale=0.0001)
        assert cube.controllers[0].num_banks == 1


class TestDelivery:
    def test_correct_quadrant_no_penalty(self):
        engine, router, cube, responses = build_cube()
        packet = request_for(quadrant=0)
        # arriving on external input 4 (= ext port 0 = quadrant 0)
        cube._deliver(engine, packet, input_index=LOCAL_INPUTS + 0)
        engine.run()
        txn = packet.transaction
        assert txn.mem_arrive_ps == 0
        assert txn.mem_depart_ps == dram_tech().trcd_ps + dram_tech().tcl_ps

    def test_wrong_quadrant_penalty(self):
        engine, router, cube, responses = build_cube()
        packet = request_for(quadrant=2)
        cube._deliver(engine, packet, input_index=LOCAL_INPUTS + 0)
        engine.run()
        expected = (
            CubeConfig().wrong_quadrant_penalty_ps
            + dram_tech().trcd_ps
            + dram_tech().tcl_ps
        )
        assert packet.transaction.mem_depart_ps == expected

    def test_accept_respects_controller_capacity(self):
        _, _, cube, _ = build_cube(
            cube_config=CubeConfig(controller_queue_depth=1)
        )
        packet = request_for(quadrant=0)
        assert cube._accept(packet)
        cube.controllers[0].reserve()
        assert not cube._accept(packet)

    def test_quadrants_independent_capacity(self):
        _, _, cube, _ = build_cube(
            cube_config=CubeConfig(controller_queue_depth=1)
        )
        cube.controllers[0].reserve()
        assert cube._accept(request_for(quadrant=1))

    def test_request_hops_recorded_once(self):
        engine, _, cube, _ = build_cube()
        packet = request_for(quadrant=0)
        packet.hops_traversed = 3
        cube._deliver(engine, packet, input_index=4)
        assert packet.transaction.request_hops == 3


class TestCounters:
    def test_totals_aggregate_quadrants(self):
        engine, _, cube, responses = build_cube()
        for quadrant in range(4):
            cube._deliver(
                engine, request_for(quadrant=quadrant), input_index=4 + quadrant
            )
        cube._deliver(engine, request_for(quadrant=0, is_write=True), 4)
        engine.run()
        assert cube.total_reads() == 4
        assert cube.total_writes() == 1
        assert len(responses) == 5

    def test_refresh_staggered_across_quadrants(self):
        engine, _, cube, _ = build_cube()
        offsets = {c.refresh_offset_ps for c in cube.controllers}
        assert len(offsets) == 4  # all distinct

    def test_nvm_cube_has_no_refresh(self):
        engine, _, cube, _ = build_cube(tech=nvm_tech())
        cube.start(engine)
        engine.run(until=1_000_000)
        assert all(c.refreshes == 0 for c in cube.controllers)
