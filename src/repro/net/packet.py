"""Memory-network packets.

Four packet kinds exist (Section 3.2): read requests and write
acknowledgments are small *control* packets; write requests and read
responses carry a cache line and are 5x larger *data* packets.

Peer-to-peer copies (NOM-style cube-to-cube DMA) add three more kinds
forming a ``req/xfer/ack`` relay: ``P2P_REQ`` (host -> source cube,
control), ``P2P_XFER`` (source cube -> destination cube, data) and
``P2P_ACK`` (destination cube -> host, control).  The xfer and ack
legs travel in the response class so they enjoy the same channel
priority as read data, keeping the relay deadlock-free with the
existing request/response progress argument.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional, Tuple

from repro.config import PacketConfig

#: Transaction kinds, as indices into the host port's per-kind ledger
#: (repro.host.port) and into :data:`KINDS` for labels.
READ, WRITE, P2P = 0, 1, 2
KINDS = ("read", "write", "p2p")


class PacketKind(enum.IntEnum):
    READ_REQ = 0
    WRITE_REQ = 1
    READ_RESP = 2
    WRITE_ACK = 3
    # Peer-to-peer copy relay (cube -> cube DMA).
    P2P_REQ = 4  # host -> source cube: "read and forward" command
    P2P_XFER = 5  # source cube -> destination cube: the copied line
    P2P_ACK = 6  # destination cube -> host: copy durable

    @property
    def is_request(self) -> bool:
        return self in (
            PacketKind.READ_REQ,
            PacketKind.WRITE_REQ,
            PacketKind.P2P_REQ,
        )

    @property
    def is_response(self) -> bool:
        return not self.is_request

    @property
    def carries_data(self) -> bool:
        """Data packets are write requests, read responses and p2p lines."""
        return self in (
            PacketKind.WRITE_REQ,
            PacketKind.READ_RESP,
            PacketKind.P2P_XFER,
        )

    @property
    def is_write_class(self) -> bool:
        """Write-class traffic (used for skip-list differentiated routing).

        All p2p legs route over the read class: the copy's latency is
        dominated by its data leg, which behaves like read data.
        """
        return self in (PacketKind.WRITE_REQ, PacketKind.WRITE_ACK)

    def response_kind(self) -> "PacketKind":
        if self is PacketKind.READ_REQ:
            return PacketKind.READ_RESP
        if self is PacketKind.WRITE_REQ:
            return PacketKind.WRITE_ACK
        if self is PacketKind.P2P_REQ:
            return PacketKind.P2P_XFER
        if self is PacketKind.P2P_XFER:
            return PacketKind.P2P_ACK
        raise ValueError(f"{self!r} is not a request kind")


_packet_ids = itertools.count()


class Packet:
    """One packet traversing the MN.

    ``route`` is the full node-id path (host included) assigned at
    injection (requests) or at the memory cube (responses); ``hop_index``
    points at the position of the node currently holding the packet.
    """

    __slots__ = (
        "pid",
        "kind",
        "is_req",
        "is_resp",
        "is_xfer",
        "location",
        "address",
        "src",
        "dest",
        "size_bits",
        "route",
        "hop_index",
        "create_ps",
        "inject_ps",
        "mem_arrive_ps",
        "mem_depart_ps",
        "complete_ps",
        "hops_traversed",
        "transaction",
        "source_tech",
        "obs_mark",
        "freed",
    )

    def __init__(
        self,
        kind: PacketKind,
        address: int,
        src: int,
        dest: int,
        size_bits: int,
        create_ps: int,
        transaction: Optional["Transaction"] = None,
    ) -> None:
        self.pid = next(_packet_ids)
        self.kind = kind
        # The request/response class is consulted on every arbitration
        # and every segment append; precomputed plain bools keep the
        # enum-property lookups off the hot path.
        self.is_req = kind <= PacketKind.WRITE_REQ or kind is PacketKind.P2P_REQ
        self.is_resp = not self.is_req
        # P2P data legs carry their own attribution labels (mem phase).
        self.is_xfer = kind is PacketKind.P2P_XFER
        # Memory placement this packet targets.  Equal to the owning
        # transaction's decoded location except for P2P_XFER packets,
        # which address the *destination* cube's mirrored location.
        self.location = transaction.location if transaction is not None else None
        self.address = address
        self.src = src
        self.dest = dest
        self.size_bits = size_bits
        self.route: List[int] = []
        self.hop_index = 0
        self.create_ps = create_ps
        self.inject_ps: Optional[int] = None
        self.mem_arrive_ps: Optional[int] = None
        self.mem_depart_ps: Optional[int] = None
        self.complete_ps: Optional[int] = None
        self.hops_traversed = 0
        self.transaction = transaction
        self.source_tech: Optional[str] = None  # tech of responding cube
        # Scratch timestamp for observability: marks when the packet
        # entered its current waiting stage (set only with attribution on).
        self.obs_mark: Optional[int] = None
        # Set by PacketPool.release; guards against double frees and
        # lets the auditor spot a freed packet still resident somewhere.
        self.freed = False

    # ------------------------------------------------------------------
    @property
    def current_node(self) -> int:
        return self.route[self.hop_index]

    @property
    def next_node(self) -> int:
        return self.route[self.hop_index + 1]

    @property
    def at_destination(self) -> bool:
        return self.hop_index == len(self.route) - 1

    @property
    def hops_remaining(self) -> int:
        return len(self.route) - 1 - self.hop_index

    def advance(self) -> None:
        self.hop_index += 1
        self.hops_traversed += 1

    def total_route_hops(self) -> int:
        return max(len(self.route) - 1, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Packet(#{self.pid} {self.kind.name} addr=0x{self.address:x} "
            f"{self.src}->{self.dest} hop {self.hop_index}/{len(self.route) - 1})"
        )


class Transaction:
    """One memory transaction: a request packet and its response.

    Also carries the latency-breakdown bookkeeping used by Fig 5:
    ``to_memory`` (injection queue + request network), ``in_memory``
    (controller queue + array access), ``from_memory`` (response
    network).
    """

    __slots__ = (
        "tid",
        "address",
        "is_write",
        "is_p2p",
        "kind",
        "port_id",
        "dest_cube",
        "location",
        "p2p_dest_cube",
        "p2p_dest_location",
        "xfer_hops",
        "issue_ps",
        "start_ps",
        "inject_ps",
        "mem_arrive_ps",
        "mem_depart_ps",
        "complete_ps",
        "request_hops",
        "response_hops",
        "dest_tech",
        "row_hit",
        "read_seq",
        "failed",
        "segments",
        "claim_ps",
        "seg_mark",
        "seg_suppressed",
        "landing",
        "retries",
        "timed_out",
        "retry_mark",
    )

    _ids = itertools.count()

    def __init__(
        self,
        address: int,
        is_write: bool,
        port_id: int,
        issue_ps: int,
        is_p2p: bool = False,
    ):
        self.tid = next(Transaction._ids)
        self.address = address
        self.is_write = is_write
        # Peer-to-peer copy: read ``address`` at its home cube, write
        # the line to ``p2p_dest_cube``.  ``is_write`` stays False — the
        # directory treats the copy as a read of the source address.
        self.is_p2p = is_p2p
        self.kind = WRITE if is_write else P2P if is_p2p else READ
        self.port_id = port_id
        self.dest_cube: Optional[int] = None
        self.location = None  # decoded (cube, quadrant, bank, row)
        self.p2p_dest_cube: Optional[int] = None
        self.p2p_dest_location = None  # mirrored placement at the dest cube
        self.xfer_hops = 0  # hops taken by the P2P_XFER leg
        self.issue_ps = issue_ps
        self.start_ps: Optional[int] = None  # window grant (enters mem system)
        self.inject_ps: Optional[int] = None
        self.mem_arrive_ps: Optional[int] = None
        self.mem_depart_ps: Optional[int] = None
        self.complete_ps: Optional[int] = None
        self.request_hops = 0
        self.response_hops = 0
        self.dest_tech: Optional[str] = None
        self.row_hit: Optional[bool] = None
        self.read_seq: Optional[int] = None  # in-order retirement index
        # RAS: True once the host failed this transaction (its cube
        # became unreachable after a permanent failure).  Failed
        # transactions complete as counted errors, not latency samples.
        self.failed = False
        # Per-hop latency attribution (repro.obs): ``None`` keeps the hot
        # paths untouched; the host port sets it to ``[]`` when the
        # system's ObsConfig asks for attribution, and every component
        # the transaction visits then appends (label, start_ps, end_ps).
        self.segments: Optional[List[Tuple[str, int, int]]] = None
        # Overload (host-edge deadlines/retry; repro.host.port).  All
        # no-ops unless the config arms deadlines.  ``claim_ps`` is this
        # *attempt's* window-grant time (start_ps stays pinned at the
        # first grant so total_ps spans retries); ``seg_mark`` remembers
        # the segment count at the claim so a cancelled attempt's
        # partial segments can be truncated; ``landing`` is set the
        # instant a response is accepted, closing the race against a
        # deadline timer firing while the response crosses the chip;
        # ``timed_out`` distinguishes deadline-stale transactions from
        # RAS-failed ones on the response path.
        self.claim_ps: Optional[int] = None
        self.seg_mark = 0
        # suppressed_ps of a label-masked segment list at the claim,
        # restored with the seg_mark truncation on deadline cancel
        self.seg_suppressed = 0
        self.landing = False
        self.retries = 0
        self.timed_out = False
        self.retry_mark: Optional[int] = None  # timeout time, for host.retry

    # latency components (valid once complete) --------------------------
    # The breakdown clock starts when the request enters the memory
    # system (window grant at the coherence point), matching the paper's
    # per-request latency accounting; core-side stall time before the
    # grant shows up in runtime, not in the breakdown.
    @property
    def _t0(self) -> int:
        return self.start_ps if self.start_ps is not None else self.issue_ps

    @property
    def to_memory_ps(self) -> int:
        return (self.mem_arrive_ps or 0) - self._t0

    @property
    def in_memory_ps(self) -> int:
        return (self.mem_depart_ps or 0) - (self.mem_arrive_ps or 0)

    @property
    def from_memory_ps(self) -> int:
        return (self.complete_ps or 0) - (self.mem_depart_ps or 0)

    @property
    def total_ps(self) -> int:
        return (self.complete_ps or 0) - self._t0

    @property
    def core_stall_ps(self) -> int:
        """Core-side wait before the window grant (not in the breakdown)."""
        return self._t0 - self.issue_ps


def request_packet(
    config: PacketConfig, txn: Transaction, now_ps: int
) -> Packet:
    """Build the request packet for a transaction."""
    kind = PacketKind.WRITE_REQ if txn.is_write else PacketKind.READ_REQ
    size = config.data_bits if kind.carries_data else config.control_bits
    pkt = Packet(
        kind=kind,
        address=txn.address,
        src=-1,  # host; concrete node ids are assigned by the system
        dest=txn.dest_cube if txn.dest_cube is not None else -1,
        size_bits=size,
        create_ps=now_ps,
        transaction=txn,
    )
    return pkt


def response_packet(config: PacketConfig, request: Packet, now_ps: int) -> Packet:
    """Build the response for a delivered request (read data / write ack)."""
    kind = request.kind.response_kind()
    size = config.data_bits if kind.carries_data else config.control_bits
    pkt = Packet(
        kind=kind,
        address=request.address,
        src=request.dest,
        dest=request.src,
        size_bits=size,
        create_ps=now_ps,
        transaction=request.transaction,
    )
    return pkt
