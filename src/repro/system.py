"""System assembly: build one memory network and run a workload on it.

:class:`MemoryNetworkSystem` is the package's main entry point.  It
instantiates the configured topology, wires routers/links/cubes/host,
drives the workload to completion, and returns a :class:`SimResult`.

A system models **one host port's MN**.  Ports serve disjoint address
slices (Section 2.3), so the per-port run is representative of the full
machine; the configured port count still sets the per-port capacity
(hence cube count) and the per-port share of the workload's offered
load.
"""

from __future__ import annotations

import dataclasses
import re
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.arbitration import ArbiterContext, make_arbiter_factory
from repro.config import SystemConfig
from repro.energy import EnergyModel
from repro.errors import RoutingError, SimulationError, TopologyError
from repro.host import AddressMap, HostNode, HostPort
from repro.memory import MemoryCube
from repro.net.buffers import InputQueue
from repro.net.link import Link, SharedChannel
from repro.net.packet import P2P, Packet, PacketKind, Transaction
from repro.net.pool import PacketPool
from repro.net.router import LinkOutput, Router
from repro.net.routing import RouteClass, RouteTable, cached_bfs_paths
from repro.ras import FaultInjector
from repro.results import SimResult, TransactionCollector
from repro.sim import Engine, derive_seed
from repro.topology import Topology, build_topology
from repro.topology.base import HOST_ID, LinkKind, NodeKind
from repro.units import serialization_ps
from repro.workloads import Request, SyntheticWorkload, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import TraceRecorder


class MemoryNetworkSystem:
    """One fully-wired MN simulation instance (single use)."""

    def __init__(
        self,
        config: SystemConfig,
        workload: WorkloadSpec,
        requests: int = 2000,
        workload_iter: Optional[Iterator[Request]] = None,
        engine: Optional[Engine] = None,
        audit: Optional[bool] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.workload_spec = workload
        self.requests = requests
        # An explicit engine selects the scheduler implementation (the
        # determinism-equivalence suite runs both); results are
        # bit-identical either way, so the choice is not part of the
        # job digest.
        self.engine = engine if engine is not None else Engine()
        # The native backend compiles the network inner loop too: every
        # input queue in the fabric is the C implementation (push/pop/
        # head-key maintenance in C, identical semantics and counters).
        # The pure-Python schedulers keep the pure-Python queue, so the
        # wheel baseline stays an honest comparison point.
        self._queue_cls = InputQueue
        self._router_cls = Router
        if getattr(self.engine, "scheduler", None) == "native":
            from repro.sim.native import native_queue_class, native_router_class

            self._queue_cls = native_queue_class()
            self._router_cls = native_router_class()
        self.topology: Topology = build_topology(config)
        self.route_table = RouteTable(
            self.topology.adjacency_by_class(),
            HOST_ID,
            self.topology.cube_ids(),
        )
        self.collector = TransactionCollector()
        # One shared recycling allocator for every packet in the system
        # (host requests and cube responses).  Recycled packets draw
        # fresh pids from the global counter, so pooling is invisible to
        # result digests; see repro.net.pool.
        self.packet_pool = PacketPool()

        self._links: List[Tuple[Link, LinkKind]] = []
        self._routers: Dict[int, Router] = {}
        self._link_input_index: Dict[Tuple[int, int], int] = {}
        self._link_by_pair: Dict[Tuple[int, int], Link] = {}
        self.cubes: Dict[int, MemoryCube] = {}

        self._build_routers()
        self._wire_edges()
        self._fill_subtree_weights()
        self._build_address_map()
        self._build_port(workload, requests, workload_iter)
        self.tracer = self._attach_tracer()
        # RAS (repro.ras): ``_ras`` stays None unless a fault plan is
        # enabled, keeping every hot-path check a no-op.
        self._ras: Optional[FaultInjector] = None
        self._dead_edges: set = set()
        self._live_adjacency = None
        self._guarded = False
        self._attach_ras()
        self._warmup_count = int(requests * config.warmup_fraction)
        self._completed_count = 0
        self._started = False
        # Invariant audits (repro.check): like the engine choice, audit
        # enablement is not part of the config — audits verify a run
        # without changing it, so audited and unaudited runs share job
        # digests.  ``None`` defers to the ambient flag / REPRO_AUDIT.
        self.auditor = None
        if audit is None:
            from repro.check import audits_enabled

            audit = audits_enabled()
        if audit:
            from repro.check import InvariantAuditor

            self.auditor = InvariantAuditor(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _arbiter_context(self) -> ArbiterContext:
        distance = {
            cube: self.route_table.distance(cube, RouteClass.READ)
            for cube in self.topology.cube_ids()
        }
        tech = {
            cube: self.topology.tech_of(cube) for cube in self.topology.cube_ids()
        }
        link = self.config.link
        hop_ps = link.serdes_latency_ps + serialization_ps(
            self.config.packet.data_bits, link.lanes, link.lane_gbps
        )
        dram, nvm = self.config.dram, self.config.nvm
        nvm_extra_ps = (nvm.trcd_ps + nvm.tcl_ps) - (dram.trcd_ps + dram.tcl_ps)
        bonus = max(nvm_extra_ps / hop_ps, 0.0) if hop_ps else 0.0
        return ArbiterContext(
            distance_to_host=distance,
            tech_of_node=tech,
            nvm_bonus_hops=bonus,
        )

    def _build_routers(self) -> None:
        # Every router's arbiters read the same distance and tech tables;
        # only subtree_weights (filled per router by
        # _fill_subtree_weights) needs a fresh dict per router.
        shared = self._arbiter_context()
        for node in sorted(self.topology.nodes):
            spec = self.topology.nodes[node]
            context = dataclasses.replace(shared, subtree_weights={})
            factory = make_arbiter_factory(self.config.arbiter, context)
            router = self._router_cls(
                node_id=node,
                name=f"{spec.kind.name.lower()}{node}",
                arbiter_factory=factory,
            )
            self._routers[node] = router
            if spec.kind == NodeKind.HOST:
                self.host_node = HostNode(
                    router,
                    self.config.host.inject_queue_depth,
                    queue_cls=self._queue_cls,
                )
            elif spec.kind == NodeKind.CUBE:
                tech = self.config.dram if spec.tech == "DRAM" else self.config.nvm
                self.cubes[node] = MemoryCube(
                    node_id=node,
                    tech=tech,
                    cube_config=self.config.cube,
                    packet_config=self.config.packet,
                    router=router,
                    route_response=self._route_response,
                    bank_scale=self.config.capacity_scale,
                    pool=self.packet_pool,
                    queue_cls=self._queue_cls,
                )
            # SWITCH nodes are pure routers: no local output needed.

    def _wire_edges(self) -> None:
        for edge in self.topology.edges:
            link_config = (
                self.config.interposer_link
                if edge.link_kind == LinkKind.INTERPOSER
                else self.config.link
            )
            # One shared serializer per edge unless full duplex is asked
            # for (Section 5: a single link joins two packages).
            shared = None
            if not link_config.full_duplex:
                shared = SharedChannel(f"{edge.a}<->{edge.b}")
            for src, dst in ((edge.a, edge.b), (edge.b, edge.a)):
                queue = self._queue_cls(
                    f"n{dst}.from{src}", link_config.input_buffer_packets
                )
                dst_router = self._routers[dst]
                index = dst_router.add_input(queue)
                self._link_input_index[(src, dst)] = index
                link = Link(f"{src}->{dst}", link_config, queue, channel=shared)
                src_router = self._routers[src]
                src_router.add_output(dst, LinkOutput(link))
                link.on_idle = self._make_output_ready(src_router, dst)
                link.on_delivery = dst_router.packet_arrived
                link.sender_has_response_head = self._make_response_peek(
                    src_router, dst
                )
                self._link_by_pair[(src, dst)] = link
                self._links.append((link, edge.link_kind))

    @staticmethod
    def _make_response_peek(router: Router, key: int) -> Callable[[], bool]:
        def peek() -> bool:
            return router.has_response_head(key)

        return peek

    @staticmethod
    def _make_output_ready(router: Router, key: int) -> Callable[[Engine], None]:
        def callback(engine: Engine) -> None:
            router.output_ready(engine, key)

        return callback

    def _fill_subtree_weights(self) -> None:
        """Static weights for the global-weighted arbiter ablation."""
        for cube in self.topology.cube_ids():
            path = self.route_table.route_to_host(cube, RouteClass.READ)
            for upstream, downstream in zip(path, path[1:]):
                index = self._link_input_index.get((upstream, downstream))
                if index is None:
                    continue
                router = self._routers[downstream]
                for key in router.outputs:
                    context = router.arbiter_for(key).context
                    context.subtree_weights[index] = (
                        context.subtree_weights.get(index, 0) + 1
                    )

    def _build_address_map(self) -> None:
        cube_ids = self.topology.cube_ids()
        scale = self.config.capacity_scale
        capacities = []
        for cube in cube_ids:
            tech = self.config.dram if self.topology.tech_of(cube) == "DRAM" else (
                self.config.nvm
            )
            capacities.append(int(tech.capacity_bytes * scale))
        self.address_map = AddressMap(
            cube_capacities=capacities,
            interleave_bytes=self.config.host.interleave_bytes,
            row_bytes=self.config.cube.row_bytes,
            banks_per_stack=max(
                1, int(self.config.cube.banks_per_stack * scale)
            ),
            num_quadrants=self.config.cube.num_quadrants,
        )
        self.cube_node_ids = cube_ids

    def _build_port(
        self,
        workload: WorkloadSpec,
        requests: int,
        workload_iter: Optional[Iterator[Request]],
    ) -> None:
        if workload_iter is None:
            # Note: the seed deliberately excludes the MN configuration so
            # every config sees the *same* request stream for a workload —
            # speedups then compare like against like.
            seed = derive_seed(self.config.seed, workload.name)
            workload_iter = SyntheticWorkload(
                spec=workload,
                port_capacity_bytes=self.address_map.total_bytes,
                seed=seed,
                num_ports=self.config.host.num_ports,
            )
        self.port = HostPort(
            port_id=0,
            config=self.config,
            workload=workload_iter,
            total_requests=requests,
            address_map=self.address_map,
            cube_node_ids=self.cube_node_ids,
            route_table=self.route_table,
            inject_queue=self.host_node.inject_queue,
            router=self._routers[HOST_ID],
            on_transaction_done=self._transaction_done,
            window=workload.mlp,
            pool=self.packet_pool,
            cube_techs=[self.topology.tech_of(c) for c in self.cube_node_ids],
            open_loop=workload.is_open_loop,
        )
        self.host_node.attach_port(self.port.on_response)

    def _attach_tracer(self) -> Optional["TraceRecorder"]:
        """Hook a TraceRecorder into engine/links/routers/queues.

        Returns None (and touches nothing) unless ``config.obs.trace``
        is set — the zero-overhead-when-off guard leaves every hot-path
        ``tracer`` attribute as its default ``None``.
        """
        obs = self.config.obs
        if not obs.trace:
            return None
        from repro.obs import TraceRecorder

        sample = obs.trace_sample
        # Phase derived from the config seed: reproducible from the
        # config alone, decorrelated from event alignment at the start
        # of the run (phase 0 would always keep the very first event).
        phase = derive_seed(self.config.seed, "obs.trace") % sample if sample > 1 else 0
        tracer = TraceRecorder(obs.trace_ring, sample=sample, sample_phase=phase)
        if obs.trace_engine_events:
            self.engine.set_tracer(tracer)
        self.port.tracer = tracer
        for link, _kind in self._links:
            link.tracer = tracer
        for router in self._routers.values():
            router.tracer = tracer
            for queue in router.inputs:
                queue.tracer = tracer
        for cube in self.cubes.values():
            for controller in cube.controllers:
                controller.tracer = tracer
        return tracer

    def _attach_ras(self) -> None:
        """Bind the fault plan to the wired network (RAS, repro.ras).

        Touches nothing when the plan is disabled.  Otherwise attaches
        per-link transient-error state (external links only for the
        global BER — the interposer is exempt, matching its on-package
        error characteristics) and schedules the permanent failures.
        """
        plan = self.config.ras
        if not plan.enabled:
            return
        self._ras = FaultInjector(plan, self.config.seed)
        for edge in self.topology.edges:
            external = edge.link_kind != LinkKind.INTERPOSER
            for pair in ((edge.a, edge.b), (edge.b, edge.a)):
                link = self._link_by_pair.get(pair)
                if link is not None:
                    self._ras.bind_link(link, pair[0], pair[1], external)
        self._ras.schedule_failures(
            self.engine, self._on_link_failure, self._on_cube_failure
        )

    def _on_link_failure(self, engine: Engine, a: int, b: int) -> None:
        self._apply_failures(engine, [(a, b)])

    def _on_cube_failure(self, engine: Engine, cube: int) -> None:
        incident = [
            (edge.a, edge.b)
            for edge in self.topology.edges
            if cube in (edge.a, edge.b)
        ]
        self._apply_failures(engine, incident)

    def _apply_failures(self, engine: Engine, pairs) -> None:
        """Kill the given edges mid-run and degrade gracefully.

        Protocol: (1) mark both link directions dead (in-flight packets
        still deliver), (2) rebuild the route table over the surviving
        topology (unreachable cubes allowed), (3) hand the new table to
        the host *before* anything can inject — stale-routed injections
        could deadlock behind a dead output, (4) quiesce every queued
        packet whose remaining route crosses a dead edge (reroute in
        place, or drop + fail its transaction), (5) fail outstanding and
        pending transactions to now-unreachable cubes as counted errors,
        (6) kick every router.
        """
        applied = []
        for a, b in pairs:
            if (a, b) in self._dead_edges:
                continue
            try:
                self.topology.remove_edge(a, b)
            except TopologyError:
                continue  # edge not present (e.g. statically failed)
            self._dead_edges.add((a, b))
            self._dead_edges.add((b, a))
            for pair in ((a, b), (b, a)):
                link = self._link_by_pair.get(pair)
                if link is not None:
                    link.fail()
            applied.append((a, b))
        if not applied:
            return
        stats = self._ras.stats
        stats.add("ras.link_failures", len(applied))
        stats.add("ras.route_rebuilds")
        self._live_adjacency = self.topology.adjacency_by_class()
        self.route_table = RouteTable(
            self._live_adjacency,
            HOST_ID,
            self.topology.cube_ids(),
            allow_unreachable=True,
        )
        if not self._guarded:
            self._guarded = True
            for link, _kind in self._links:
                link.route_guard = self._guard_delivery
        if self.tracer is not None:
            for a, b in applied:
                self.tracer.ras_failure(engine.now, a, b)
        self.port.adopt_route_table(self.route_table)
        self._quiesce(engine)
        self.port.fail_unreachable(engine)
        for router in self._routers.values():
            router.kick(engine)
        if self.auditor is not None:
            self.auditor.audit("ras-quiesce")

    def _quiesce(self, engine: Engine) -> None:
        """Walk every queue; fix or drop packets stranded by the cut.

        Two phases: first every queue is repaired (no credits returned,
        so a freed slot cannot admit a packet into a queue we have not
        walked yet), then the batched credit returns / drain callbacks
        fire.
        """
        drained: List[Tuple[InputQueue, int]] = []
        for router in self._routers.values():
            for queue in router.inputs:
                if queue.is_empty:
                    continue
                victims = set()
                for packet in queue.packets():
                    if not self._route_is_dead(packet):
                        continue
                    if self._reroute_packet(packet):
                        self._ras.stats.add("ras.packets_rerouted")
                    else:
                        victims.add(packet)
                        self._drop_packet(engine, packet)
                if victims:
                    removed = queue.remove(victims)
                    drained.append((queue, removed))
                    # Released only now — after the removal — so a
                    # recycled carcass can never alias a packet the
                    # remove() walk still compares against.
                    for victim in victims:
                        self.packet_pool.release(victim)
                # A head rerouted in place invalidates the queue's
                # cached output key; the batched credit returns below
                # re-enter arbitration before the routers are kicked.
                queue.refresh_head_key()
        # Queued-but-uninjected responses live outside the router queues.
        for cube in self.cubes.values():
            for controller in cube.controllers:
                dropped = controller.sweep_responses(self._fix_or_drop_response)
                if dropped:
                    self._ras.stats.add("ras.packets_dropped", dropped)
        for queue, count in drained:
            if queue.upstream_link is not None:
                for _ in range(count):
                    queue.upstream_link.return_credit(engine)
            elif queue.on_drain is not None:
                queue.on_drain(engine)

    def _fix_or_drop_response(self, response: Packet) -> bool:
        """Controller-buffer sweep predicate: keep (possibly rerouted)?"""
        if not self._route_is_dead(response):
            return True
        if self._reroute_packet(response):
            self._ras.stats.add("ras.packets_rerouted")
            return True
        # The host is unreachable from this cube; its transaction is
        # failed by the host-side sweep that follows the quiesce.
        return False

    def _route_is_dead(self, packet: Packet) -> bool:
        route = packet.route
        dead = self._dead_edges
        for i in range(packet.hop_index, len(route) - 1):
            if (route[i], route[i + 1]) in dead:
                return True
        return False

    def _reroute_packet(self, packet: Packet) -> bool:
        """Re-path a packet from its current node over the live topology."""
        cls = (
            RouteClass.WRITE
            if packet.kind.is_write_class
            else RouteClass.READ
        )
        paths = cached_bfs_paths(self._live_adjacency[cls], packet.current_node)
        path = paths.get(packet.route[-1])
        if path is None:
            return False
        packet.route = list(path)
        packet.hop_index = 0
        return True

    def _guard_delivery(self, engine: Engine, packet: Packet, link: Link) -> bool:
        """Delivery-time route check installed on every link after a
        failure.  Returns False when the packet was dropped (the link
        then swallows it and its queue slot is never consumed)."""
        if not self._route_is_dead(packet):
            return True
        if self._reroute_packet(packet):
            self._ras.stats.add("ras.packets_rerouted")
            return True
        self._drop_packet(engine, packet)
        link.return_credit(engine)
        # Last: _drop_packet/return_credit cascades may acquire new
        # packets, and this carcass must not be recycled while they run.
        self.packet_pool.release(packet)
        return False

    def _drop_packet(self, engine: Engine, packet: Packet) -> None:
        self._ras.stats.add("ras.packets_dropped")
        txn = packet.transaction
        if txn is not None and not txn.failed:
            # Request cut off from its cube, or response cut off from the
            # host: either way the transaction can never complete.
            self.port.fail_issued(engine, txn)
            self.port.try_inject(engine)

    def dump_trace(self, directory: str) -> List[str]:
        """Write the run's trace as JSONL + Chrome trace_event files.

        Returns the paths written.  Requires ``config.obs.trace``.
        """
        if self.tracer is None:
            raise SimulationError("tracing is off; set config.obs.trace")
        from pathlib import Path

        out = Path(directory)
        out.mkdir(parents=True, exist_ok=True)
        tag = re.sub(
            r"[^A-Za-z0-9_.-]+", "_",
            f"{self.config.label()}_{self.workload_spec.name}",
        ).strip("_")
        runtime = self.collector.last_complete_ps or self.engine.now
        metadata = {
            "config": self.config.label(),
            "workload": self.workload_spec.name,
            "requests": self.requests,
            "runtime_ps": runtime,
        }
        jsonl = out / f"trace_{tag}.jsonl"
        chrome = out / f"trace_{tag}.json"
        self.tracer.write_jsonl(jsonl, runtime)
        self.tracer.write_chrome(chrome, runtime, metadata)
        return [str(jsonl), str(chrome)]

    # ------------------------------------------------------------------
    # runtime callbacks
    # ------------------------------------------------------------------
    def _route_response(self, response: Packet) -> bool:
        kind = response.kind
        if kind is PacketKind.P2P_XFER:
            # The copied line travels cube -> cube over the read class;
            # the path may transit the host router as a plain switch.
            try:
                response.route = list(
                    self.route_table.route_between(
                        response.src, response.dest, RouteClass.READ
                    )
                )
            except RoutingError:
                if self._ras is None:
                    raise  # without a fault plan this is a wiring bug
                self._ras.stats.add("ras.responses_unroutable")
                return False
            response.hop_index = 0
            return True
        cls = (
            RouteClass.WRITE if kind == PacketKind.WRITE_ACK else RouteClass.READ
        )
        try:
            response.route = list(self.route_table.route_to_host(response.src, cls))
        except RoutingError:
            if self._ras is None:
                raise  # without a fault plan this is a wiring bug
            # The host became unreachable from this cube; the response
            # is lost and the host errors the transaction on its side.
            self._ras.stats.add("ras.responses_unroutable")
            return False
        response.hop_index = 0
        return True

    def _transaction_done(self, engine: Engine, txn: Transaction) -> None:
        self._completed_count += 1
        if not txn.failed and self._completed_count > self._warmup_count:
            self.collector.add(txn)
        else:
            # warm-up and failed transactions still define the runtime
            # envelope, but are not latency samples
            if txn.complete_ps and txn.complete_ps > self.collector.last_complete_ps:
                self.collector.last_complete_ps = txn.complete_ps
        if self.port.done:
            # The port flipped ``done`` immediately before this hook, so
            # the run stops at the end of the event that finished the
            # last transaction.
            engine.request_stop()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> SimResult:
        if self._started:
            raise SimulationError("a MemoryNetworkSystem instance is single-use")
        self._started = True
        for cube in self.cubes.values():
            cube.start(self.engine)
        self.port.start(self.engine)
        if max_events is None:
            max_events = 4000 * self.requests + 2_000_000
        if self.port.done:
            # Zero-request run: nothing will ever complete, so nothing
            # calls request_stop — pre-arm it so the run stops after
            # its first event.
            self.engine.request_stop()
        # Completion is signalled by request_stop from _transaction_done
        # (the port flips ``done`` then invokes that hook within the
        # same event), so the dispatch loop pays one flag check per
        # event.
        self.engine.run(max_events=max_events)
        if not self.port.done:
            if self.auditor is not None:
                # A broken invariant (leaked packet, lost credit) usually
                # surfaces as a stall; name the root cause if we can.
                self.auditor.audit("stall")
            raise SimulationError(
                f"simulation stalled: {self.port.completed}/{self.requests} "
                f"transactions completed ({self.port.failed} failed) "
                f"at t={self.engine.now}"
            )
        if self.auditor is not None:
            # Audited before drain() so stranded-event checks see the
            # real queue contents.
            self.auditor.audit("final")
        self.engine.drain()
        if self.tracer is not None and self.config.obs.trace_dir:
            self.dump_trace(self.config.obs.trace_dir)
        result = self._result()
        if self.auditor is not None:
            self.auditor.audit_result(result)
        return result

    def _result(self) -> SimResult:
        external_bits = sum(
            link.bits_carried for link, kind in self._links if kind == LinkKind.EXTERNAL
        )
        interposer_bits = sum(
            link.bits_carried
            for link, kind in self._links
            if kind == LinkKind.INTERPOSER
        )
        accesses = []
        for node, cube in self.cubes.items():
            accesses.append((cube.tech, cube.total_reads(), cube.total_writes()))
        energy = EnergyModel(self.config.energy, self.config.packet).report(
            external_bits, interposer_bits, accesses
        )
        extra: Dict[str, float] = {}
        port = self.port
        if port.generated_by[P2P]:
            extra["p2p.generated"] = float(port.generated_by[P2P])
            extra["p2p.completed"] = float(port.completed_by[P2P])
            extra["p2p.failed"] = float(port.failed_by[P2P])
        if port._overload:
            # Overload accounting (open-loop arrivals and/or deadlines/
            # shedding).  Keyed only when the feature is active so
            # pre-overload result digests are untouched.
            extra["overload.generated"] = float(port.generated)
            extra["overload.completed"] = float(port.completed)
            extra["overload.timeouts"] = float(port.timeouts)
            extra["overload.retries"] = float(port.retries)
            extra["overload.timed_out"] = float(port.timed_out)
            extra["overload.shed"] = float(port.shed)
            extra["overload.stale_responses"] = float(port.stale_responses)
            extra["overload.peak_backlog"] = float(port.peak_backlog)
        obs = self.config.obs
        if obs.attribution and (
            obs.attribution_sample > 1 or obs.attribution_labels is not None
        ):
            # Sampled/masked attribution accounting.  Keyed only when
            # the narrowing features are active so full-attribution and
            # attribution-off result digests are untouched.
            extra["obs.attribution_sample"] = float(obs.attribution_sample)
            extra["obs.attribution_sampled"] = float(port.attribution_sampled)
        if self._ras is not None:
            extra.update(self._ras.counters())
            extra["ras.replays"] = float(
                sum(link.replays for link, _kind in self._links)
            )
            if self.port.late_responses:
                extra["ras.late_responses"] = float(self.port.late_responses)
        return SimResult(
            config_label=self.config.label(),
            workload=self.workload_spec.name,
            runtime_ps=self.collector.last_complete_ps,
            collector=self.collector,
            energy=energy,
            mean_distance=self.route_table.mean_distance(),
            max_distance=self.route_table.max_distance(),
            stalled_reads=self.port.directory.stalled_reads,
            burst_mode_toggles=self.port.burst_mode_toggles,
            events_processed=self.engine.events_processed,
            requests_failed=self.port.failed,
            requests_served=self.port.completed,
            extra=extra,
        )


def simulate(
    config: SystemConfig,
    workload: WorkloadSpec,
    requests: int = 2000,
    workload_iter: Optional[Iterator[Request]] = None,
) -> SimResult:
    """Convenience one-shot: build a system, run it, return the result.

    Routed through the ambient :class:`repro.runner.ParallelRunner`, so
    repeated calls with an identical (config, workload, requests) triple
    are memoized by content digest.  An explicit ``workload_iter`` makes
    the run non-reproducible from its arguments alone, so those runs
    bypass the runner and always simulate.
    """
    if workload_iter is not None:
        return MemoryNetworkSystem(
            config, workload, requests=requests, workload_iter=workload_iter
        ).run()
    # Imported here: repro.runner imports repro.system for its workers.
    from repro.runner import SimJob, get_runner

    return get_runner().run(
        [SimJob(config=config, workload=workload, requests=requests)]
    )[0]
