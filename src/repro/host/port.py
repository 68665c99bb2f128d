"""The host memory port: closed-loop injection with a coherence stall.

Each port issues the workload's request stream subject to:

* a maximum-outstanding window (memory-level parallelism of the core),
* injection-queue space on the host router (backpressure from the MN),
* the directory rule (reads stall behind outstanding writes to the
  same line — required for skip-list consistency, Section 4.2).

Reads, writes and p2p copies share one lifecycle — generate, queue,
claim, inject, complete or terminate — and differ only in their gate:
reads use the MLP window, writes the store buffer ("off the critical
path", Section 4.2), and p2p copies a DMA queue sized like the store
buffer.  The port therefore keeps one per-kind *ledger*: every counter
is a 3-slot list indexed by ``Transaction.kind`` (``READ``, ``WRITE``,
``P2P`` from repro.net.packet), and the totals (``generated``,
``completed``, ``failed``, ...) are read-only sums over it, so a total
can never disagree with its parts.  Each generated request ends in
exactly one of completed / failed (RAS) / timed out / shed.

Two Section 4.2/5.3 refinements live here because they are decisions
made "when injecting to the network":

* read-priority injection — reads may bypass queued writes at the port,
* write-burst hysteresis — while writes dominate the recent stream,
  write requests are routed over the short (read-class) paths.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterator, List, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.host.address_map import AddressMap, Location
from repro.host.directory import Directory
from repro.net.buffers import InputQueue
from repro.net.packet import KINDS, P2P, READ, WRITE, Packet, Transaction
from repro.net.pool import PacketPool
from repro.net.routing import RouteClass, RouteTable
from repro.net.router import Router
from repro.obs.attribution import MaskedSegments, SegmentMask, segment_code
from repro.sim.engine import Engine
from repro.sim.random import derive_seed
from repro.workloads.base import Request

# Interned attribution labels (repro.obs); the port's labels carry no
# location detail, so they are interned once at import.
_SEG_REQ_PORT = segment_code("req.port")
_SEG_REQ_INJECT = segment_code("req.inject")
_SEG_RESP_PORT = segment_code("resp.port")
# Overload dead-time labels: a cancelled attempt's span [claim, timeout]
# collapses to host.timeout.<kind>, and the backoff + re-queue wait
# [timeout, next claim] becomes host.retry.<kind>, so a retried request's
# segments still tile its end-to-end latency exactly (zero residual).
# Both tuples are indexed by Transaction.kind.
_SEG_TIMEOUT = tuple(segment_code(f"host.timeout.{kind}") for kind in KINDS)
_SEG_RETRY = tuple(segment_code(f"host.retry.{kind}") for kind in KINDS)


def _summed(ledger: str) -> property:
    """A read-only total over one per-kind ledger list."""
    return property(lambda self: sum(getattr(self, ledger)))


class HostPort:
    """One memory port of the APU driving one MN."""

    # Totals over the per-kind ledger lists set up in __init__.
    generated = _summed("generated_by")
    completed = _summed("completed_by")
    failed = _summed("failed_by")
    timeouts = _summed("timeouts_by")
    retries = _summed("retried_by")
    timed_out = _summed("timed_out_by")
    shed = _summed("shed_by")
    outstanding = _summed("outstanding_by")

    def __init__(
        self,
        port_id: int,
        config: SystemConfig,
        workload: Iterator[Request],
        total_requests: int,
        address_map: AddressMap,
        cube_node_ids: Sequence[int],
        route_table: RouteTable,
        inject_queue: InputQueue,
        router: Router,
        on_transaction_done: Callable[[Engine, Transaction], None],
        window: Optional[int] = None,
        pool: Optional[PacketPool] = None,
        cube_techs: Optional[Sequence[str]] = None,
        open_loop: bool = False,
    ) -> None:
        self.port_id = port_id
        self.config = config
        self.workload = workload
        self.total_requests = total_requests
        self.address_map = address_map
        self.cube_node_ids = list(cube_node_ids)
        self.route_table = route_table
        self.inject_queue = inject_queue
        self.router = router
        self.on_transaction_done = on_transaction_done
        # Normally the system-wide shared pool; directly-constructed
        # ports (unit tests) get a private one.
        self.pool = pool if pool is not None else PacketPool()
        self.window = (
            config.host.max_outstanding_per_port
            if window is None
            else min(window, config.host.max_outstanding_per_port)
        )

        self.directory = Directory()
        self.pending: List[Transaction] = []  # generated, not yet injected
        # The per-kind ledger, indexed by Transaction.kind.  The backlog
        # is also kept split by kind (same order as ``pending``) for
        # room-gated selection scans; only _enqueue/_dequeue touch it.
        self._pending_by: List[List[Transaction]] = [[], [], []]
        # Claimed window slots: reads against the MLP window, writes
        # against the store buffer, and p2p copies against the DMA
        # engine's queue, sized like the store buffer — copies leave the
        # core's critical path once issued, so they must not consume
        # read MLP.
        self.outstanding_by = [0, 0, 0]
        self.generated_by = [0, 0, 0]
        self.completed_by = [0, 0, 0]
        # RAS: requests failed as host-level errors (dest cube became
        # unreachable after a permanent failure).
        self.failed_by = [0, 0, 0]
        # Overload events, counted per attempt: deadline expiries and
        # re-issues.
        self.timeouts_by = [0, 0, 0]
        self.retried_by = [0, 0, 0]
        # Overload dispositions: deadline with retries spent, and
        # admission refused.
        self.timed_out_by = [0, 0, 0]
        self.shed_by = [0, 0, 0]
        # Destination-cube selection for p2p copies (config.p2p_pattern).
        # ``cube_techs`` aligns with ``cube_node_ids``; the "promote"
        # pattern moves lines to the opposite technology tier.
        self.cube_techs = list(cube_techs) if cube_techs is not None else None
        self._tech_cubes = {}
        if self.cube_techs is not None:
            for index, tech in enumerate(self.cube_techs):
                self._tech_cubes.setdefault(tech, []).append(index)
        # in-order read retirement (wavefront semantics)
        self._read_seq = 0
        self._retire_head = 0
        self._completed_reads = set()
        self.issued = 0
        # Maintained eagerly by _update_done, so the system's check
        # after every finished transaction is one attribute read.
        self.done = total_requests <= 0
        # RAS: responses that beat the failure across the cut after
        # their transaction was already errored (conservatively
        # ignored; see docs/ras.md).
        self.late_responses = 0
        self._degraded = False
        # Only runs with scheduled permanent failures pay for tracking
        # in-network transactions (needed to error them on reroute).
        self._track_outstanding = config.ras.has_permanent_failures
        self._outstanding_txns = set()
        # observability: transactions born at this port carry segment
        # lists only when attribution is on (repro.obs).  With
        # attribution_sample = N, a deterministic 1-in-N stride of the
        # generation sequence carries them instead; the phase derives
        # from the config seed so reruns sample identical transactions,
        # and the schedule itself never changes (sampled-out runs are
        # bit-identical to attribution-off ones).
        self._attribution = config.obs.attribution
        self._attr_sample = config.obs.attribution_sample
        self._attr_phase = 0
        if self._attr_sample > 1:
            self._attr_phase = derive_seed(
                config.seed, "obs.attribution", str(port_id)
            ) % self._attr_sample
        self._attr_mask = None
        if config.obs.attribution_labels is not None:
            self._attr_mask = SegmentMask(config.obs.attribution_labels)
        self.attribution_sampled = 0  # exact count of sampled-in txns
        # write-burst hysteresis state (Section 5.3)
        self._recent_writes: Deque[bool] = deque(maxlen=config.hysteresis_window)
        self.write_burst_mode = False
        self.burst_mode_toggles = 0

        # Overload robustness (config.overload + open-loop arrivals).
        # ``open_loop`` bypasses the MLP window / store-buffer gating so
        # offered load can exceed capacity (the arrival process, not the
        # completion rate, paces injection).  All state below is inert
        # for closed-loop runs with a default OverloadConfig.
        self.open_loop = open_loop
        overload = config.overload
        self._deadline_ps = overload.deadline_ps
        self._max_retries = overload.max_retries
        self._retry_backoff_ps = overload.retry_backoff_ps
        self._shed_high = overload.shed_high
        self._shed_low = overload.shed_low
        self._shedding = False  # hysteresis state: admission closed
        self._overload = open_loop or overload.enabled
        self.tracer = None  # set by the system when tracing is on
        # responses of deadline-cancelled attempts, dropped on arrival
        self.stale_responses = 0
        # high-water mark of pending + outstanding (the shed bound)
        self.peak_backlog = 0

        self._at_port: Deque[Transaction] = deque()  # crossed the chip, not injected
        inject_queue.on_drain = lambda engine: self._pump(engine)

    # -- generation ---------------------------------------------------------
    def start(self, engine: Engine) -> None:
        engine.schedule(0, self._next_arrival)

    def _next_arrival(self, engine: Engine) -> None:
        generated = self.generated
        if generated >= self.total_requests:
            return
        try:
            request = next(self.workload)
        except StopIteration:
            raise WorkloadError(
                f"workload exhausted after {generated} of "
                f"{self.total_requests} requests"
            ) from None
        txn = Transaction(
            address=request.address,
            is_write=request.is_write,
            port_id=self.port_id,
            issue_ps=engine.now,
            is_p2p=request.is_p2p,
        )
        if self._attribution and (
            self._attr_sample == 1
            or generated % self._attr_sample == self._attr_phase
        ):
            txn.segments = (
                [] if self._attr_mask is None
                else MaskedSegments(self._attr_mask)
            )
            self.attribution_sampled += 1
        txn.location = self.address_map.decode(request.address)
        txn.dest_cube = self.cube_node_ids[txn.location.cube_index]
        if txn.kind == P2P:
            self._assign_p2p_dest(txn)
        self.generated_by[txn.kind] += 1
        self._observe_for_hysteresis(request.is_write)
        if self._overload and not self._admit():
            # Admission is closed (hysteresis above shed_high): the
            # request is counted as shed, never enqueued.  This is what
            # bounds the backlog and turns collapse into a plateau.
            self._shed_txn(engine, txn)
        else:
            self._enqueue(engine, txn)
        if self._overload:
            self._note_backlog()
        if self.generated < self.total_requests:
            engine.schedule(max(request.gap_ps, 0), self._next_arrival)

    # -- p2p destination selection ------------------------------------------
    def _assign_p2p_dest(self, txn: Transaction) -> None:
        """Pick the copy's destination cube per ``config.p2p_pattern``.

        Deterministic functions of the source placement and address
        only — no RNG draws — so destination choice is digest-stable by
        construction across engines and run orders.
        """
        num_cubes = len(self.cube_node_ids)
        src = txn.location.cube_index
        pattern = self.config.p2p_pattern
        if pattern == "shuffle":
            # the farthest rotation: stresses bisection links
            dest = (src + (num_cubes + 1) // 2) % num_cubes
        elif pattern == "promote":
            dest = self._promote_dest(src, txn.address)
        else:  # "neighbor": next cube in address-map order
            dest = (src + 1) % num_cubes
        txn.p2p_dest_cube = self.cube_node_ids[dest]
        loc = txn.location
        # The line lands at the mirrored placement of the destination
        # cube (same quadrant/bank/row indices, different package).
        txn.p2p_dest_location = Location(
            cube_index=dest,
            quadrant=loc.quadrant,
            bank=loc.bank,
            row=loc.row,
            offset=loc.offset,
        )

    def _promote_dest(self, src: int, address: int) -> int:
        """Hot-page promotion: move lines to the opposite memory tier.

        NVM-resident lines promote to a DRAM cube (and DRAM lines
        demote to NVM, modeling the eviction that makes room), spread
        across the target tier by page number.  Falls back to the
        neighbor pattern when the MN has a single technology.
        """
        techs = self.cube_techs
        if techs is None:
            return (src + 1) % len(self.cube_node_ids)
        target_tier = "DRAM" if techs[src] != "DRAM" else "NVM"
        candidates = self._tech_cubes.get(target_tier)
        if not candidates:
            return (src + 1) % len(self.cube_node_ids)
        page = address >> 12  # 4 KiB pages
        return candidates[page % len(candidates)]

    # -- hysteresis ------------------------------------------------------------
    def _observe_for_hysteresis(self, is_write: bool) -> None:
        if not self.config.write_skip_hysteresis:
            return
        self._recent_writes.append(is_write)
        if len(self._recent_writes) < self._recent_writes.maxlen:
            return
        fraction = sum(self._recent_writes) / len(self._recent_writes)
        if not self.write_burst_mode and fraction >= self.config.hysteresis_hi:
            self.write_burst_mode = True
            self.burst_mode_toggles += 1
        elif self.write_burst_mode and fraction <= self.config.hysteresis_lo:
            self.write_burst_mode = False
            self.burst_mode_toggles += 1

    # -- backlog -----------------------------------------------------------------
    def _enqueue(self, engine: Engine, txn: Transaction) -> None:
        """Queue one attempt, arm its deadline, and try to issue."""
        self.pending.append(txn)
        self._pending_by[txn.kind].append(txn)
        if self._deadline_ps:
            engine.schedule(self._deadline_ps, self._deadline_expired, txn)
        self.try_inject(engine)

    def _dequeue(self, txn: Transaction) -> None:
        self.pending.remove(txn)
        self._pending_by[txn.kind].remove(txn)

    def _note_backlog(self) -> None:
        """Raise the pending + outstanding high-water mark if exceeded."""
        backlog = len(self.pending) + self.outstanding
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog

    # -- injection ---------------------------------------------------------------
    def _select_next(
        self, read_room: bool, write_room: bool, p2p_room: bool
    ) -> Optional[Transaction]:
        """Pick the next pending transaction to inject.

        Selection is the first eligible read (when read-priority
        injection is on), else the first eligible transaction in
        generation order; p2p copies count as non-priority traffic,
        like writes.  When the read window is full over a p2p-free
        backlog (or the store buffer is), the scan walks only the other
        kind's split list instead of filtering ``pending`` element by
        element.
        """
        can_issue = self.directory.can_issue
        pending_by = self._pending_by
        if not pending_by[P2P]:
            if not read_room:
                for txn in pending_by[WRITE]:
                    if can_issue(txn.address, True):
                        return txn
                return None
            if not write_room:
                for txn in pending_by[READ]:
                    if can_issue(txn.address, False):
                        return txn
                return None
        # Every kind gated by its own window.  A p2p copy claims the
        # directory as a *read* of its source address.
        room = (read_room, write_room, p2p_room)
        read_priority = self.config.host.read_priority_injection
        first_eligible = None
        for txn in self.pending:
            kind = txn.kind
            if not room[kind] or not can_issue(txn.address, kind == WRITE):
                continue
            if not read_priority or kind == READ:
                return txn  # with priority, the first eligible read wins
            if first_eligible is None:
                first_eligible = txn
        return first_eligible

    def try_inject(self, engine: Engine) -> None:
        host = self.config.host
        open_loop = self.open_loop
        outstanding = self.outstanding_by
        pending_p2p = self._pending_by[P2P]
        while self.pending:
            if open_loop:
                # Open-loop arrivals model an external population, not a
                # finite-MLP core: the window never gates injection and
                # only network backpressure (and the directory) throttles.
                read_room = write_room = True
                p2p_room = bool(pending_p2p)
            else:
                read_room = outstanding[READ] < self.window
                write_room = outstanding[WRITE] < host.store_buffer_entries
                if pending_p2p:
                    p2p_room = outstanding[P2P] < host.store_buffer_entries
                    if not read_room and not write_room and not p2p_room:
                        return  # no window slot of any kind is free
                else:
                    p2p_room = False
                    if not read_room and not write_room:
                        return  # no window slot of either kind is free
            txn = self._select_next(read_room, write_room, p2p_room)
            if txn is None:
                return  # everything pending is blocked or out of room
            self._dequeue(txn)
            if self._degraded and not self._reachable(txn):
                self._terminate(engine, txn, self.failed_by)
                continue
            # claim_ps is this attempt's grant; start_ps stays pinned at
            # the *first* grant so total_ps spans retries.
            txn.claim_ps = engine.now
            if txn.start_ps is None:
                txn.start_ps = engine.now
            seg = txn.segments
            if seg is not None:
                if txn.retry_mark is not None:
                    # backoff + re-queue wait of a retried request
                    seg.append((_SEG_RETRY[txn.kind], txn.retry_mark,
                                engine.now))
                    txn.retry_mark = None
                txn.seg_mark = len(seg)
                txn.seg_suppressed = getattr(seg, "suppressed_ps", 0)
            if txn.kind == READ:
                txn.read_seq = self._read_seq
                self._read_seq += 1
            # The request crosses the on-chip path from the coherence
            # point to the memory port before entering the MN.  The
            # window slot and directory entry are claimed now, so
            # ordering decisions happen at the coherence point.
            self.directory.issued(txn.address, txn.is_write)
            outstanding[txn.kind] += 1
            if self._track_outstanding:
                self._outstanding_txns.add(txn)
            engine.schedule(self.config.host.port_latency_ps, self._reach_port, txn)

    def _reach_port(self, engine: Engine, txn: Transaction) -> None:
        self._at_port.append(txn)
        self._pump(engine)

    def _pump(self, engine: Engine) -> None:
        while self._at_port and self.inject_queue.has_space():
            txn = self._at_port.popleft()
            if txn.failed:
                continue  # errored by a topology change while queued here
            self._inject(engine, txn)

    def _inject(self, engine: Engine, txn: Transaction) -> None:
        txn.inject_ps = engine.now
        seg = txn.segments
        if seg is not None:
            reached_port = txn.claim_ps + self.config.host.port_latency_ps
            seg.append((_SEG_REQ_PORT, txn.claim_ps, reached_port))
            if engine.now > reached_port:
                seg.append((_SEG_REQ_INJECT, reached_port, engine.now))
        if txn.is_p2p:
            packet = self.pool.p2p_request_packet(self.config.packet, txn, engine.now)
        else:
            packet = self.pool.request_packet(self.config.packet, txn, engine.now)
        packet.src = self.route_table.host_id
        packet.dest = txn.dest_cube
        route_class = self._route_class_for(txn)
        packet.route = list(self.route_table.route_to_cube(txn.dest_cube, route_class))
        packet.hop_index = 0
        self.issued += 1
        self.inject_queue.push(packet, engine.now)
        self.router.packet_arrived(engine, self.inject_queue)

    def _route_class_for(self, txn: Transaction) -> RouteClass:
        if not txn.is_write:
            return RouteClass.READ
        if self.write_burst_mode:
            # During write bursts the skip paths are re-opened to writes.
            return RouteClass.READ
        return RouteClass.WRITE

    @staticmethod
    def _reach_class_for(txn: Transaction) -> RouteClass:
        """The class whose reachability decides a transaction's fate.

        Writes must complete over the WRITE class regardless of burst
        mode: the acknowledgment always routes (and a mid-run reroute
        always re-paths write-class packets) over the strict write
        adjacency, so a cube only write-reachable via skip links counts
        as unreachable for writes — the skip-list WRITE-class error case.
        """
        return RouteClass.WRITE if txn.is_write else RouteClass.READ

    def _reachable(self, txn: Transaction) -> bool:
        """Can this transaction still complete over the current table?

        Regular transactions need the host<->cube round trip; a p2p copy
        additionally needs the cube->cube transfer leg and the ack path
        from the destination cube back to the host.
        """
        table = self.route_table
        if not table.is_reachable(txn.dest_cube, self._reach_class_for(txn)):
            return False
        if txn.is_p2p:
            return table.p2p_reachable(
                txn.dest_cube, txn.p2p_dest_cube, RouteClass.READ
            ) and table.is_reachable(txn.p2p_dest_cube, RouteClass.READ)
        return True

    # -- completion --------------------------------------------------------------
    def on_response(self, engine: Engine, packet: Packet) -> None:
        txn = packet.transaction
        if txn is None:
            raise WorkloadError("response packet without a transaction")
        if txn.failed:
            if txn.timed_out:
                # Response of a deadline-cancelled attempt: the request
                # was already retried or abandoned, so the data is stale.
                self.stale_responses += 1
            else:
                # The response crossed the cut just before the failure
                # hit; the transaction was already errored (its
                # slot/directory state is long released), so the late
                # data is dropped.
                self.late_responses += 1
            self.pool.release(packet)
            return
        txn.response_hops = packet.hops_traversed
        # The packet's job ends here — completion rides the transaction.
        self.pool.release(packet)
        if self._deadline_ps:
            # The response is accepted *now*: a deadline timer firing
            # while it crosses the chip back to the core must not cancel
            # the attempt out from under it.
            txn.landing = True
        # the response still has to cross the chip back to the core
        engine.schedule(self.config.host.port_latency_ps, self._complete, txn)

    def _complete(self, engine: Engine, txn: Transaction) -> None:
        if txn.failed:
            if txn.timed_out:
                self.stale_responses += 1
            else:
                self.late_responses += 1
            return
        txn.complete_ps = engine.now
        if txn.segments is not None:
            seg_start = engine.now - self.config.host.port_latency_ps
            txn.segments.append((_SEG_RESP_PORT, seg_start, engine.now))
        self._release_claims(txn)
        self.completed_by[txn.kind] += 1
        self._update_done()
        self.on_transaction_done(engine, txn)
        self.try_inject(engine)

    def _release_claims(self, txn: Transaction) -> None:
        """Free the directory entry and window/store-buffer slot."""
        self.directory.completed(txn.address, txn.is_write)
        if txn.kind == READ and self.config.host.inorder_retire:
            # the slot frees only when all older reads are also back
            self._completed_reads.add(txn.read_seq)
            while self._retire_head in self._completed_reads:
                self._completed_reads.discard(self._retire_head)
                self._retire_head += 1
                self.outstanding_by[READ] -= 1
        else:
            self.outstanding_by[txn.kind] -= 1
        if self._track_outstanding:
            self._outstanding_txns.discard(txn)

    # -- overload: admission control, deadlines, retry ---------------------------
    def _admit(self) -> bool:
        """Hysteresis admission check over pending + outstanding.

        Admission closes when the backlog reaches ``shed_high`` and
        reopens only once it has drained to ``shed_low``, so the gate
        does not flap around the watermark.  With shedding enabled the
        backlog is bounded by ``shed_high`` (checked by
        ``overload.backlog`` in repro.check).
        """
        if not self._shed_high:
            return True
        backlog = len(self.pending) + self.outstanding
        if self._shedding:
            if backlog <= self._shed_low:
                self._shedding = False
                return True
            return False
        if backlog >= self._shed_high:
            self._shedding = True
            return False
        return True

    def _terminate(
        self, engine: Engine, txn: Transaction, ledger: List[int]
    ) -> None:
        """End one logical request unserved, counted in ``ledger``.

        The shared tail of shed, abandon and RAS failure: ``failed`` is
        the terminal marker (never a latency sample), and ``complete_ps``
        is when the host learns of the outcome.
        """
        txn.failed = True
        txn.complete_ps = engine.now
        ledger[txn.kind] += 1
        self._update_done()
        self.on_transaction_done(engine, txn)

    def _shed_txn(self, engine: Engine, txn: Transaction) -> None:
        """Refuse admission: the request terminates as shed, unserved."""
        if self.tracer is not None:
            self.tracer.host_shed(engine.now, txn.tid)
        self._terminate(engine, txn, self.shed_by)

    def _deadline_expired(self, engine: Engine, txn: Transaction) -> None:
        """The end-to-end deadline of one attempt fired.

        No-op when the attempt already resolved (completed, errored, or
        its response was accepted and is crossing the chip).  An
        unclaimed attempt — still waiting for admission at the host
        edge — abandons terminally: the client gave up while queued.  A
        claimed attempt is cancelled (claims released, in-flight packets
        become stale) and retried after exponential backoff, until the
        retry budget is spent.
        """
        if txn.complete_ps is not None or txn.failed or txn.landing:
            return
        self.timeouts_by[txn.kind] += 1
        if self.tracer is not None:
            self.tracer.host_timeout(engine.now, txn.tid, txn.retries)
        if txn.claim_ps is None:
            self._dequeue(txn)
            self._abandon(engine, txn)
            return
        # Cancel the attempt in service.  The transaction object stays
        # marked failed+timed_out so every stale path — _pump skip,
        # response drop, RAS sweeps — ignores it; the *logical* request
        # lives on in the retry clone.  The attempt's partial segments
        # collapse to one host.timeout span so the history still tiles.
        seg = txn.segments
        if seg is not None:
            del seg[txn.seg_mark:]
            if type(seg) is not list:
                # roll the masked list's dropped-span tally back to the
                # claim too: the truncated spans no longer count
                seg.suppressed_ps = txn.seg_suppressed
            seg.append((_SEG_TIMEOUT[txn.kind], txn.claim_ps, engine.now))
        self._release_claims(txn)
        txn.failed = True
        txn.timed_out = True
        if txn.retries < self._max_retries:
            clone = self._clone_for_retry(engine, txn)
            backoff = self._retry_backoff_ps << txn.retries
            engine.schedule(backoff, self._reissue, clone)
        else:
            self._abandon(engine, txn)
        self.try_inject(engine)

    def _abandon(self, engine: Engine, txn: Transaction) -> None:
        """Terminal timed-out disposition for one logical request."""
        txn.timed_out = True
        self._terminate(engine, txn, self.timed_out_by)

    def _clone_for_retry(self, engine: Engine, txn: Transaction) -> Transaction:
        """A fresh attempt object carrying the logical request's history.

        The timed-out original keeps its identity for any packets still
        in flight (they resolve as stale); the clone inherits the pinned
        ``start_ps`` and the segment history, so latency and attribution
        span every attempt.
        """
        clone = Transaction(
            address=txn.address,
            is_write=txn.is_write,
            port_id=txn.port_id,
            issue_ps=txn.issue_ps,
            is_p2p=txn.is_p2p,
        )
        clone.location = txn.location
        clone.dest_cube = txn.dest_cube
        clone.p2p_dest_cube = txn.p2p_dest_cube
        clone.p2p_dest_location = txn.p2p_dest_location
        clone.start_ps = txn.start_ps
        clone.retries = txn.retries + 1
        clone.retry_mark = engine.now
        clone.segments = txn.segments
        # Stale packets of the cancelled attempt must not write into the
        # live history.
        txn.segments = None
        return clone

    def _reissue(self, engine: Engine, clone: Transaction) -> None:
        """Re-queue a retry clone after its backoff elapsed.

        Retries pass the same admission gate as fresh arrivals — a
        refused retry abandons terminally, which is what keeps the
        backlog bound exact under shedding.
        """
        if clone.failed:
            return  # errored while backing off (topology change)
        if self._overload and not self._admit():
            self._abandon(engine, clone)
            return
        self.retried_by[clone.kind] += 1
        if self.tracer is not None:
            self.tracer.host_retry(engine.now, clone.tid, clone.retries)
        self._enqueue(engine, clone)
        if self._overload:
            self._note_backlog()

    # -- RAS degradation ---------------------------------------------------------
    def fail_issued(self, engine: Engine, txn: Transaction) -> None:
        """Error a claimed transaction (at the port or in the network).

        Idempotent: the topology-change sweep and the packet-drop path
        can both reach the same transaction.
        """
        if txn.failed or txn.complete_ps is not None:
            return
        self._release_claims(txn)
        self._terminate(engine, txn, self.failed_by)

    def adopt_route_table(self, route_table: RouteTable) -> None:
        """A permanent failure rebuilt the routes: adopt the degraded
        table.  Called *before* the system's quiesce walk so that any
        injection it triggers already uses live routes — a stale route
        whose first hop is dead would deadlock the inject queue.
        """
        self.route_table = route_table
        self._degraded = True

    def fail_unreachable(self, engine: Engine) -> None:
        """Error every transaction whose cube the degraded table cannot
        reach (counted host-level errors, not latency samples).

        Transactions to still-reachable cubes are untouched — their
        packets were rerouted by the system's quiesce walk.
        """
        for txn in list(self.pending):
            if not self._reachable(txn):
                self._dequeue(txn)
                self._terminate(engine, txn, self.failed_by)
        for txn in list(self._outstanding_txns):
            if not self._reachable(txn):
                self.fail_issued(engine, txn)
        # Failed at-port transactions are skipped by _pump; freed slots
        # may admit pending work immediately.
        self._pump(engine)
        self.try_inject(engine)

    def _update_done(self) -> None:
        """Refresh the cached termination flag after a completion/error.

        Every generated request ends in exactly one disposition:
        completed, failed (RAS), timed out (deadline, retries spent), or
        shed (admission refused).
        """
        self.done = (
            self.completed + self.failed + self.timed_out + self.shed
            >= self.total_requests
        )
