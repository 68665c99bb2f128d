"""The invariant auditor: conservation checks over a live system.

:class:`InvariantAuditor` walks a wired :class:`repro.system.
MemoryNetworkSystem` — engine, links, routers, controllers, host port —
and verifies the conservation and ordering contracts the paper's
figures rest on.  It runs only at *audit points* (RAS quiesce, stall,
end of run), never per event, so an attached auditor does not perturb
the simulation and an unattached one costs nothing.

Every check is named; the names are stable API used by the negative
tests and by ``docs/testing.md``:

====================  =====================================================
invariant             contract
====================  =====================================================
engine.integrity      timing-wheel bookkeeping (pending counter, bucket
                      heap vs bucket dict, per-bucket filing) is
                      self-consistent — a stale wheel entry fails here
engine.monotonic      audited simulation time never goes backwards
credit.bounds         a link's credits stay within [0, buffer depth]
credit.conservation   depth - credits == queued + on-wire for every
                      link; a created or destroyed credit fails here
queue.accounting      pushed == popped + removed + resident for every
                      input queue; a leaked packet fails here
queue.capacity        occupancy never exceeds a finite queue's capacity
queue.fifo            entry timestamps are non-decreasing head-to-tail
packet.route          every queued packet is filed at the node its route
                      says it is at, with a sane hop index
packet.conservation   healthy end of run leaves no packet anywhere;
                      degraded runs may strand only failed transactions
router.accounting     grants issued == packets popped from the inputs
controller.admission  queue + reservations never exceed the depth
port.window           outstanding reads/writes/p2p copies stay within
                      the MLP window and store buffer
port.backlog          the per-kind split pending lists tile the pending
                      list
port.directory        directory outstanding writes == port outstanding
                      writes
txn.conservation      generated == completed + failed + timed-out +
                      shed (+ in flight mid-run), in total and for
                      reads and writes, from the port's per-kind ledger
overload.conservation overload dispositions never exceed generation,
                      and retries never exceed deadline expiries
overload.backlog      with shedding enabled, pending + outstanding
                      (and its high-water mark) never exceed shed_high
p2p.conservation      peer-to-peer copies conserve: generated ==
                      completed + failed + timed-out + shed at end of run
p2p.leak              no P2P_XFER packet is ever queued on a route that
                      terminates at the host port (cube-to-cube data
                      never crosses a host link)
obs.attribution       segment sums tile end-to-end latency exactly
                      (zero unattributed residual): per phase, they
                      equal the to/in/from-memory totals of the
                      transactions that carried segments, less the
                      span time a label mask suppressed
energy.totals         the reported energy equals a recomputation from
                      per-link bit counts and per-cube access counts
ras.consistency       dead edges stay dead: both directions marked, no
                      queued packet routed across one, and no route in
                      the live tables resurrects one
====================  =====================================================

:meth:`InvariantAuditor.audit` raises :class:`repro.errors.
InvariantViolation` carrying every failed check plus the run context
(config label, workload, seed, scheduler, request count) needed to
reproduce; :meth:`collect` returns the violation list without raising.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.errors import InvariantViolation
from repro.net.packet import KINDS, P2P, WRITE, PacketKind
from repro.net.routing import RouteClass
from repro.obs.attribution import UNATTRIBUTED, PHASES, phase_of
from repro.topology.base import LinkKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.results import SimResult
    from repro.system import MemoryNetworkSystem

#: (invariant, component, detail)
Violation = Tuple[str, str, str]


class InvariantAuditor:
    """Conservation/ordering audits over one system instance."""

    def __init__(self, system: "MemoryNetworkSystem") -> None:
        self.system = system
        self.audits_run = 0
        self._last_time_ps = -1

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def audit(self, point: str) -> None:
        """Run every applicable check; raise on any violation."""
        violations = self.collect(point)
        if violations:
            raise InvariantViolation(violations, self._context(point))

    def collect(self, point: str) -> List[Violation]:
        """Run every applicable check; return violations without raising.

        ``point`` selects the check set: any value runs the structural
        checks; ``"final"`` adds the end-of-run conservation checks.
        """
        self.audits_run += 1
        out: List[Violation] = []
        self._check_engine(out)
        self._check_links(out)
        self._check_queues(out)
        self._check_routers(out)
        self._check_controllers(out)
        self._check_port(out, final=point == "final")
        self._check_pool(out)
        self._check_p2p(out)
        self._check_ras(out)
        if point == "final":
            self._check_final(out)
        return out

    def audit_result(self, result: "SimResult") -> None:
        """Audit a finished run's :class:`SimResult` against the system.

        Verifies attribution completeness (segment sums tile the
        end-to-end latency, zero unattributed residual) and that the
        energy report equals a recomputation from first principles.
        """
        out: List[Violation] = []
        self._check_attribution(out, result)
        self._check_energy(out, result)
        if result.requests_failed != self.system.port.failed:
            out.append((
                "txn.conservation", "result",
                f"requests_failed {result.requests_failed} != "
                f"port.failed {self.system.port.failed}",
            ))
        if result.requests_served != self.system.port.completed:
            out.append((
                "txn.conservation", "result",
                f"requests_served {result.requests_served} != "
                f"port.completed {self.system.port.completed}",
            ))
        if out:
            raise InvariantViolation(out, self._context("result"))

    def _context(self, point: str) -> dict:
        system = self.system
        return {
            "point": point,
            "time_ps": system.engine.now,
            "config": system.config.label(),
            "workload": system.workload_spec.name,
            "seed": system.config.seed,
            "requests": system.requests,
            "scheduler": system.engine.scheduler,
        }

    # ------------------------------------------------------------------
    # component walks
    # ------------------------------------------------------------------
    def _check_engine(self, out: List[Violation]) -> None:
        engine = self.system.engine
        for problem in engine.integrity_errors():
            out.append(("engine.integrity", "engine", problem))
        if engine.now < self._last_time_ps:
            out.append((
                "engine.monotonic", "engine",
                f"time went backwards: {engine.now} < audited "
                f"{self._last_time_ps}",
            ))
        self._last_time_ps = engine.now

    def _wire_in_flight(self, link) -> int:
        """Packets launched on ``link`` that have not yet landed."""
        return (
            link.packets_carried - link.guard_drops - link.dst_queue.pushed
        )

    def _check_links(self, out: List[Violation]) -> None:
        for link, _kind in self.system._links:
            queue = link.dst_queue
            credits = link.credits
            in_flight = self._wire_in_flight(link)
            if in_flight < 0:
                out.append((
                    "credit.conservation", link.name,
                    f"negative wire occupancy: carried "
                    f"{link.packets_carried}, guard-dropped "
                    f"{link.guard_drops}, delivered {queue.pushed}",
                ))
            if credits is None:
                continue
            depth = queue.capacity
            if not 0 <= credits <= depth:
                out.append((
                    "credit.bounds", link.name,
                    f"credits {credits} outside [0, {depth}]",
                ))
            expected = len(queue) + in_flight
            if depth - credits != expected:
                out.append((
                    "credit.conservation", link.name,
                    f"depth {depth} - credits {credits} != "
                    f"{len(queue)} queued + {in_flight} on wire",
                ))

    def _iter_queues(self):
        for router in self.system._routers.values():
            for queue in router.inputs:
                yield queue

    def _check_queues(self, out: List[Violation]) -> None:
        for queue in self._iter_queues():
            resident = len(queue)
            if queue.pushed != queue.pops + queue.removed_count + resident:
                out.append((
                    "queue.accounting", queue.name,
                    f"pushed {queue.pushed} != popped {queue.pops} + "
                    f"removed {queue.removed_count} + resident {resident}",
                ))
            if queue.capacity is not None and resident > queue.capacity:
                out.append((
                    "queue.capacity", queue.name,
                    f"{resident} resident > capacity {queue.capacity}",
                ))
            if len(queue._entry_times) != resident:
                out.append((
                    "queue.fifo", queue.name,
                    f"{len(queue._entry_times)} entry times for "
                    f"{resident} packets",
                ))
            last = None
            for entered in queue._entry_times:
                if entered is None:
                    continue
                if last is not None and entered < last:
                    out.append((
                        "queue.fifo", queue.name,
                        f"entry times out of order: {entered} after {last}",
                    ))
                    break
                last = entered

    def _check_routers(self, out: List[Violation]) -> None:
        for router in self.system._routers.values():
            granted = sum(router.grants.values())
            popped = sum(queue.pops for queue in router.inputs)
            if granted != popped:
                out.append((
                    "router.accounting", router.name,
                    f"{granted} grants != {popped} pops across inputs",
                ))
            for queue in router.inputs:
                packets = queue.packets()
                if packets:
                    head = packets[0]
                    hop = head.hop_index + 1
                    expected = (
                        head.route[hop] if hop < len(head.route) else -1
                    )
                else:
                    expected = None
                if queue.head_key != expected:
                    out.append((
                        "queue.head_key", queue.name,
                        f"cached head key {queue.head_key} != computed "
                        f"{expected} (stale after an in-place reroute?)",
                    ))
                for packet in packets:
                    if not 0 <= packet.hop_index < len(packet.route):
                        out.append((
                            "packet.route", queue.name,
                            f"{packet!r} hop index outside its route",
                        ))
                    elif packet.current_node != router.node_id:
                        out.append((
                            "packet.route", queue.name,
                            f"{packet!r} filed at node {router.node_id} "
                            f"but routed at {packet.current_node}",
                        ))

    def _check_controllers(self, out: List[Violation]) -> None:
        for cube in self.system.cubes.values():
            for controller in cube.controllers:
                occupied = len(controller._queue) + controller._reserved
                if controller._reserved < 0:
                    out.append((
                        "controller.admission", controller.name,
                        f"negative reservation count {controller._reserved}",
                    ))
                if occupied > controller.queue_depth:
                    out.append((
                        "controller.admission", controller.name,
                        f"{len(controller._queue)} queued + "
                        f"{controller._reserved} reserved > depth "
                        f"{controller.queue_depth}",
                    ))

    def _check_pool(self, out: List[Violation]) -> None:
        """Packet-pool safety: no freed packet may still be resident.

        The visible resident population is the router input queues plus
        the controllers' bank queues and response buffers; packets in
        flight on links or referenced only by scheduled events are live
        but invisible, so the conservation check is a lower bound.
        """
        pool = getattr(self.system, "packet_pool", None)
        if pool is None:
            return
        resident = 0
        for queue in self._iter_queues():
            for packet in queue.packets():
                resident += 1
                if packet.freed:
                    out.append((
                        "pool.use_after_free", queue.name,
                        f"freed packet #{packet.pid} still queued",
                    ))
        for cube in self.system.cubes.values():
            for controller in cube.controllers:
                for packet in controller._queue:
                    resident += 1
                    if packet.freed:
                        out.append((
                            "pool.use_after_free", controller.name,
                            f"freed packet #{packet.pid} in bank queue",
                        ))
                for packet in controller._pending_responses:
                    resident += 1
                    if packet.freed:
                        out.append((
                            "pool.use_after_free", controller.name,
                            f"freed packet #{packet.pid} in response buffer",
                        ))
        if pool.live < resident:
            out.append((
                "pool.conservation", "pool",
                f"pool live count {pool.live} < {resident} resident "
                f"packets visible in queues/buffers",
            ))
        if pool.released > pool.acquired:
            out.append((
                "pool.conservation", "pool",
                f"released {pool.released} > acquired {pool.acquired}",
            ))

    def _check_port(self, out: List[Violation], final: bool) -> None:
        port = self.system.port
        host = port.config.host
        if port.open_loop:
            # Open-loop injection bypasses the window, so only the sign
            # of the slot counts is checkable.
            limits = (float("inf"),) * len(KINDS)
        else:
            limits = (port.window, host.store_buffer_entries,
                      host.store_buffer_entries)
        for kind, held, limit in zip(KINDS, port.outstanding_by, limits):
            if not 0 <= held <= limit:
                out.append((
                    "port.window", "port",
                    f"outstanding {kind} {held} outside [0, {limit}]",
                ))
        split = [len(pile) for pile in port._pending_by]
        if len(port.pending) != sum(split):
            out.append((
                "port.backlog", "port",
                f"{len(port.pending)} pending != "
                + " + ".join(f"{n} {kind}" for kind, n in zip(KINDS, split)),
            ))
        if port.directory.outstanding_writes != port.outstanding_by[WRITE]:
            out.append((
                "port.directory", "port",
                f"directory holds {port.directory.outstanding_writes} "
                f"writes, port holds {port.outstanding_by[WRITE]}",
            ))
        retired = port.completed + port.failed + port.timed_out + port.shed
        if retired > port.generated or port.generated > port.total_requests:
            out.append((
                "txn.conservation", "port",
                f"retired {retired} / generated {port.generated} / "
                f"total {port.total_requests} out of order",
            ))
        self._check_overload(out, port)
        if final:
            if port.generated != port.total_requests:
                out.append((
                    "txn.conservation", "port",
                    f"run ended with {port.generated} of "
                    f"{port.total_requests} requests generated",
                ))
            if retired != port.generated:
                out.append((
                    "txn.conservation", "port",
                    f"{port.completed} completed + {port.failed} failed "
                    f"+ {port.timed_out} timed out + {port.shed} shed "
                    f"!= {port.generated} generated",
                ))
            for kind, label in enumerate(KINDS):
                gen = port.generated_by[kind]
                done = port.completed_by[kind]
                failed = port.failed_by[kind]
                lost = port.timed_out_by[kind] + port.shed_by[kind]
                if gen != done + failed + lost:
                    out.append((
                        "p2p.conservation" if kind == P2P
                        else "txn.conservation",
                        "port",
                        f"{label}: generated {gen} != completed {done} "
                        f"+ failed {failed} + timed-out/shed {lost}",
                    ))

    def _check_overload(self, out: List[Violation], port) -> None:
        """Overload-layer invariants (no-op for closed-loop default runs).

        ``overload.conservation``: per-kind, every generated request is
        heading toward exactly one disposition (completed / failed /
        timed-out / shed) and retries never exceed the configured budget
        per timeout.  ``overload.backlog``: with shedding enabled the
        host-edge backlog (pending + outstanding) never exceeds
        ``shed_high`` — including its recorded high-water mark.
        """
        overload = port.config.overload
        if not port._overload:
            return
        for label, gen, *dispositions in zip(
            KINDS, port.generated_by, port.completed_by, port.failed_by,
            port.timed_out_by, port.shed_by,
        ):
            settled = sum(dispositions)
            if settled > gen:
                out.append((
                    "overload.conservation", "port",
                    f"{label}: {settled} dispositions exceed {gen} generated",
                ))
        if port.retries > port.timeouts:
            out.append((
                "overload.conservation", "port",
                f"{port.retries} retries exceed {port.timeouts} timeouts",
            ))
        if overload.shedding_enabled:
            backlog = len(port.pending) + port.outstanding
            bound = overload.shed_high
            if backlog > bound:
                out.append((
                    "overload.backlog", "port",
                    f"backlog {backlog} exceeds shed_high {bound}",
                ))
            if port.peak_backlog > bound:
                out.append((
                    "overload.backlog", "port",
                    f"peak backlog {port.peak_backlog} exceeds "
                    f"shed_high {bound}",
                ))

    def _check_final(self, out: List[Violation]) -> None:
        """End-of-run residue: nothing live may remain anywhere.

        A healthy run (zero failed transactions) must leave every queue
        empty, every credit home, and every controller idle.  A degraded
        run may strand packets of *failed* transactions (a late response
        still crossing the network when the run's last event fired), but
        never of live ones.
        """
        port = self.system.port
        # Timed-out requests may strand stale packets of their cancelled
        # attempts exactly like RAS-failed ones, so either disqualifies
        # the run from the strict "nothing anywhere" residue check.
        healthy = port.failed == 0 and port.timeouts == 0
        for queue in self._iter_queues():
            for packet in queue.packets():
                txn = packet.transaction
                if healthy or txn is None or not txn.failed:
                    out.append((
                        "packet.conservation", queue.name,
                        f"stranded at end of run: {packet!r}",
                    ))
        for link, _kind in self.system._links:
            in_flight = self._wire_in_flight(link)
            if healthy and in_flight != 0:
                out.append((
                    "packet.conservation", link.name,
                    f"{in_flight} packet(s) still on the wire",
                ))
            if healthy and link.credits is not None and (
                link.credits != link.dst_queue.capacity
            ):
                out.append((
                    "credit.conservation", link.name,
                    f"{link.credits} of {link.dst_queue.capacity} "
                    "credits home at end of run",
                ))
        for cube in self.system.cubes.values():
            for controller in cube.controllers:
                if healthy and (
                    controller._queue
                    or controller._reserved
                    or controller._pending_responses
                ):
                    out.append((
                        "packet.conservation", controller.name,
                        f"{len(controller._queue)} queued, "
                        f"{controller._reserved} reserved, "
                        f"{len(controller._pending_responses)} responses "
                        "pending at end of run",
                    ))
        if healthy:
            if port.outstanding:
                out.append((
                    "txn.conservation", "port",
                    f"{port.outstanding} transactions outstanding at "
                    "end of run",
                ))
            if port.pending or port._at_port:
                out.append((
                    "txn.conservation", "port",
                    f"{len(port.pending)} pending / {len(port._at_port)} "
                    "at-port transactions left at end of run",
                ))
            if port.directory.outstanding_writes:
                out.append((
                    "port.directory", "port",
                    f"{port.directory.outstanding_writes} directory "
                    "writes outstanding at end of run",
                ))

    def _check_p2p(self, out: List[Violation]) -> None:
        """No peer-to-peer data transfer may be headed for the host.

        P2P_XFER packets carry cube-to-cube data; only the lightweight
        P2P_ACK returns to the host port.  A queued transfer whose route
        terminates at the host node means the injection or reroute logic
        aimed DMA data at a port that must never admit it (the host's
        ``_deliver`` would raise, but catching it here names the queue
        the bad route was found in).
        """
        host_id = self.system.route_table.host_id
        for packets, where in self._iter_resident_packets():
            for packet in packets:
                if packet.kind is PacketKind.P2P_XFER and (
                    packet.route and packet.route[-1] == host_id
                ):
                    out.append((
                        "p2p.leak", where,
                        f"{packet!r} is a p2p transfer routed to the "
                        f"host node {host_id}",
                    ))

    def _iter_resident_packets(self):
        """(packets, component-name) for every resident population."""
        for queue in self._iter_queues():
            yield queue.packets(), queue.name
        for cube in self.system.cubes.values():
            for controller in cube.controllers:
                yield list(controller._queue), controller.name
                yield list(controller._pending_responses), controller.name

    def _check_ras(self, out: List[Violation]) -> None:
        system = self.system
        dead = system._dead_edges
        if not dead:
            return
        for pair in dead:
            link = system._link_by_pair.get(pair)
            if link is not None and not link.dead:
                out.append((
                    "ras.consistency", link.name,
                    "edge is in the dead set but the link accepts traffic",
                ))
            if (pair[1], pair[0]) not in dead:
                out.append((
                    "ras.consistency", f"{pair[0]}-{pair[1]}",
                    "dead edge marked in one direction only",
                ))
        # No queued packet may be routed across a dead edge (the quiesce
        # walk reroutes or drops them), and the degraded route tables
        # must never hand out a path that resurrects one.
        for queue in self._iter_queues():
            for packet in queue.packets():
                if system._route_is_dead(packet):
                    out.append((
                        "ras.consistency", queue.name,
                        f"{packet!r} still routed across a dead edge",
                    ))
        table = system.route_table
        for cube in system.topology.cube_ids():
            for cls in (RouteClass.READ, RouteClass.WRITE):
                if not table.is_reachable(cube, cls):
                    continue
                route = table.route_to_cube(cube, cls)
                for a, b in zip(route, route[1:]):
                    if (a, b) in dead:
                        out.append((
                            "ras.consistency", f"route:{cube}:{cls.name}",
                            f"path {list(route)} crosses dead edge "
                            f"{a}-{b}",
                        ))

    # ------------------------------------------------------------------
    # result-level checks
    # ------------------------------------------------------------------
    def _check_attribution(self, out: List[Violation], result) -> None:
        collector = result.collector
        if not collector.segments:
            return
        residual = collector.segments.get(UNATTRIBUTED)
        if residual is not None and residual.total != 0:
            out.append((
                "obs.attribution", "collector",
                f"unattributed residual totals {residual.total} ps "
                f"over {residual.count} transactions (max "
                f"{residual.max})",
            ))
        phase_totals = {phase: 0 for phase in PHASES}
        for label, hist in collector.segments.items():
            phase = phase_of(label)
            if phase is not None:
                phase_totals[phase] += hist.total
        # Sampling leaves transactions without segments, so compare with
        # the components of those that carried them.  A masked-out span
        # is missing from some phase's sum; no phase may exceed its
        # component, and the shortfalls must add up to the mask's count.
        expected = collector.segmented_ps
        for phase in PHASES:
            if phase_totals[phase] > expected[phase]:
                out.append((
                    "obs.attribution", f"phase:{phase}",
                    f"segment sum {phase_totals[phase]} ps > component "
                    f"total {expected[phase]} ps",
                ))
        shortfall = sum(expected.values()) - sum(phase_totals.values())
        if shortfall != collector.suppressed_ps:
            out.append((
                "obs.attribution", "phases",
                f"segment sums fall {shortfall} ps short of the "
                f"components, but the mask suppressed "
                f"{collector.suppressed_ps} ps",
            ))

    def _check_energy(self, out: List[Violation], result) -> None:
        from repro.energy import EnergyModel

        system = self.system
        external_bits = sum(
            link.bits_carried
            for link, kind in system._links
            if kind == LinkKind.EXTERNAL
        )
        interposer_bits = sum(
            link.bits_carried
            for link, kind in system._links
            if kind == LinkKind.INTERPOSER
        )
        accesses = [
            (cube.tech, cube.total_reads(), cube.total_writes())
            for cube in system.cubes.values()
        ]
        expected = EnergyModel(
            system.config.energy, system.config.packet
        ).report(external_bits, interposer_bits, accesses)
        for field in (
            "network_pj", "interposer_pj", "memory_read_pj",
            "memory_write_pj",
        ):
            reported = getattr(result.energy, field)
            recomputed = getattr(expected, field)
            if reported != recomputed:
                out.append((
                    "energy.totals", field,
                    f"reported {reported} pJ != recomputed {recomputed} pJ",
                ))
