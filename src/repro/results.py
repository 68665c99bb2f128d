"""Simulation results: per-run aggregates and latency breakdowns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.net.packet import Transaction
from repro.obs.attribution import UNATTRIBUTED, make_segment_histogram, sum_by_label
from repro.sim.stats import Histogram
from repro.units import to_ns

#: Histogram shape for the latency-component distributions: 2 ns buckets
#: over a ~2 us in-range window.  Longer latencies land in the overflow
#: counter; percentiles then clamp to the observed max (see
#: :meth:`repro.sim.stats.Histogram.percentile_detail`).
LATENCY_HIST_BUCKET_PS = 2_000
LATENCY_HIST_NUM_BUCKETS = 1024

#: Hop-count histograms: one bucket per hop, far beyond any topology's
#: diameter (the overflow counter would catch a pathological route).
HOPS_HIST_NUM_BUCKETS = 64


def make_latency_histogram() -> Histogram:
    return Histogram(LATENCY_HIST_BUCKET_PS, LATENCY_HIST_NUM_BUCKETS)


def make_hops_histogram() -> Histogram:
    return Histogram(1, HOPS_HIST_NUM_BUCKETS)


@dataclass
class LatencyBreakdown:
    """The Fig 5 decomposition: to-memory / in-memory / from-memory.

    One exact :class:`Histogram` per component plus one for the
    end-to-end total, so the breakdown reports exact means alongside
    tail percentiles.
    """

    to_memory_hist: Histogram = field(default_factory=make_latency_histogram)
    in_memory_hist: Histogram = field(default_factory=make_latency_histogram)
    from_memory_hist: Histogram = field(default_factory=make_latency_histogram)
    total_hist: Histogram = field(default_factory=make_latency_histogram)

    def add(self, txn: Transaction) -> None:
        to_ps = txn.to_memory_ps
        in_ps = txn.in_memory_ps
        from_ps = txn.from_memory_ps
        self.to_memory_hist.add(to_ps)
        self.in_memory_hist.add(in_ps)
        self.from_memory_hist.add(from_ps)
        self.total_hist.add(to_ps + in_ps + from_ps)

    def percentile_ns(self, component: str, fraction: float) -> float:
        """Percentile (ns) of one component's latency distribution."""
        hist: Histogram = getattr(self, f"{component}_hist")
        return to_ns(hist.percentile(fraction))

    def tails_ns(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 (ns) for each component and the total."""
        out: Dict[str, Dict[str, float]] = {}
        for component in ("to_memory", "in_memory", "from_memory", "total"):
            hist: Histogram = getattr(self, f"{component}_hist")
            out[component] = {
                "p50": to_ns(hist.percentile(0.50)),
                "p95": to_ns(hist.percentile(0.95)),
                "p99": to_ns(hist.percentile(0.99)),
            }
        return out

    @property
    def to_memory_ns(self) -> float:
        return to_ns(self.to_memory_hist.mean)

    @property
    def in_memory_ns(self) -> float:
        return to_ns(self.in_memory_hist.mean)

    @property
    def from_memory_ns(self) -> float:
        return to_ns(self.from_memory_hist.mean)

    @property
    def total_ns(self) -> float:
        return self.to_memory_ns + self.in_memory_ns + self.from_memory_ns

    def fractions(self) -> Dict[str, float]:
        total = self.total_ns or 1.0
        return {
            "to_memory": self.to_memory_ns / total,
            "in_memory": self.in_memory_ns / total,
            "from_memory": self.from_memory_ns / total,
        }


class TransactionCollector:
    """Streams completed transactions into aggregate statistics.

    When latency attribution is on (``config.obs.attribution``),
    transactions arrive carrying per-hop segments; the collector folds
    each transaction's per-label duration sums into ``segments``, a dict
    of label -> :class:`Histogram`, giving every segment a mean and tail
    percentiles.  Per-transaction time no segment claimed accumulates
    under :data:`repro.obs.attribution.UNATTRIBUTED` — a nonzero mean
    there indicates an instrumentation gap.

    For the auditor, ``segmented_ps`` keeps the req/mem/resp totals of
    the transactions that carried segments (sampling skips some) and
    ``suppressed_ps`` the span time a label mask dropped.  Neither is
    serialized or digested.
    """

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.p2p = 0
        self.all = LatencyBreakdown()
        self.read_breakdown = LatencyBreakdown()
        self.write_breakdown = LatencyBreakdown()
        self.p2p_breakdown = LatencyBreakdown()
        self.request_hops = make_hops_histogram()
        self.response_hops = make_hops_histogram()
        self.xfer_hops = make_hops_histogram()
        self.row_hits = 0
        self.nvm_accesses = 0
        self.last_complete_ps = 0
        self.segments: Dict[str, Histogram] = {}
        self.segmented_ps = {"req": 0, "mem": 0, "resp": 0}
        self.suppressed_ps = 0

    def add(self, txn: Transaction) -> None:
        if txn.is_p2p:
            self.p2p += 1
            self.p2p_breakdown.add(txn)
            self.xfer_hops.add(txn.xfer_hops)
        elif txn.is_write:
            self.writes += 1
            self.write_breakdown.add(txn)
        else:
            self.reads += 1
            self.read_breakdown.add(txn)
        self.all.add(txn)
        self.request_hops.add(txn.request_hops)
        self.response_hops.add(txn.response_hops)
        if txn.row_hit:
            self.row_hits += 1
        if txn.dest_tech == "NVM":
            self.nvm_accesses += 1
        if txn.complete_ps and txn.complete_ps > self.last_complete_ps:
            self.last_complete_ps = txn.complete_ps
        if txn.segments is not None:
            self._add_segments(txn)

    def _add_segments(self, txn: Transaction) -> None:
        sums = sum_by_label(txn.segments)
        covered = 0
        segments = self.segments
        for label, duration_ps in sums.items():
            covered += duration_ps
            hist = segments.get(label)
            if hist is None:
                hist = segments[label] = make_segment_histogram()
            hist.add(duration_ps)
        # Label-masked lists (repro.obs.attribution.MaskedSegments)
        # count the spans they dropped, so the residual below stays a
        # pure instrumentation-gap signal under masking too.
        suppressed = getattr(txn.segments, "suppressed_ps", 0)
        covered += suppressed
        self.suppressed_ps += suppressed
        phase_ps = self.segmented_ps
        phase_ps["req"] += txn.to_memory_ps
        phase_ps["mem"] += txn.in_memory_ps
        phase_ps["resp"] += txn.from_memory_ps
        residual = txn.total_ps - covered
        hist = segments.get(UNATTRIBUTED)
        if hist is None:
            hist = segments[UNATTRIBUTED] = make_segment_histogram()
        hist.add(residual)

    @property
    def count(self) -> int:
        return self.reads + self.writes + self.p2p


@dataclass
class EnergyReport:
    """Dynamic energy totals in picojoules (Section 6.3 accounting)."""

    network_pj: float = 0.0
    interposer_pj: float = 0.0
    memory_read_pj: float = 0.0
    memory_write_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return (
            self.network_pj
            + self.interposer_pj
            + self.memory_read_pj
            + self.memory_write_pj
        )


@dataclass
class SimResult:
    """Everything a single simulation run reports."""

    config_label: str
    workload: str
    runtime_ps: int
    collector: TransactionCollector
    energy: EnergyReport
    mean_distance: float
    max_distance: float
    stalled_reads: int = 0
    burst_mode_toggles: int = 0
    events_processed: int = 0
    # RAS: requests errored at the host because a permanent failure made
    # their cube unreachable, and requests served end-to-end including
    # warm-up (the collector only holds post-warm-up samples).  Healthy
    # runs report failed=0 and availability 1.0.
    requests_failed: int = 0
    requests_served: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    # -- headline metrics ----------------------------------------------------
    @property
    def runtime_ns(self) -> float:
        return to_ns(self.runtime_ps)

    @property
    def transactions(self) -> int:
        return self.collector.count

    @property
    def availability(self) -> float:
        """Fraction of issued requests served (1.0 for healthy runs)."""
        served = self.requests_served or self.collector.count
        total = served + self.requests_failed
        return served / total if total else 1.0

    @property
    def mean_latency_ns(self) -> float:
        return self.collector.all.total_ns

    @property
    def p50_latency_ns(self) -> float:
        return self.collector.all.percentile_ns("total", 0.50)

    @property
    def p95_latency_ns(self) -> float:
        return self.collector.all.percentile_ns("total", 0.95)

    @property
    def p99_latency_ns(self) -> float:
        return self.collector.all.percentile_ns("total", 0.99)

    @property
    def read_fraction(self) -> float:
        if self.collector.count == 0:
            return 0.0
        return self.collector.reads / self.collector.count

    @property
    def row_hit_rate(self) -> float:
        if self.collector.count == 0:
            return 0.0
        return self.collector.row_hits / self.collector.count

    # -- overload metrics (nonzero only for overload/open-loop runs) ---------
    @property
    def requests_timed_out(self) -> int:
        """Requests abandoned at their deadline (retry budget spent)."""
        return int(self.extra.get("overload.timed_out", 0.0))

    @property
    def requests_shed(self) -> int:
        """Requests refused admission at the host edge."""
        return int(self.extra.get("overload.shed", 0.0))

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of generated requests lost to deadlines or shedding."""
        generated = self.extra.get("overload.generated", 0.0)
        if not generated:
            return 0.0
        return (self.requests_timed_out + self.requests_shed) / generated

    @property
    def goodput_rps(self) -> float:
        """Requests completed per second of simulated time.

        For open-loop runs this is the served rate to plot against the
        offered rate: past saturation it plateaus (shedding on) or the
        run degenerates into backlog growth (shedding off).
        """
        if self.runtime_ps <= 0:
            return 0.0
        return self.requests_served / (self.runtime_ps * 1e-12)

    # -- fleet extras schema -------------------------------------------------
    def per_kind_counts(self) -> Dict[str, int]:
        """Exact per-kind request counters, the fleet aggregation schema.

        This is the one place that names the integer counters a
        fleet-level fold consumes (:mod:`repro.fleet`) and that the
        fleet conservation invariant re-sums
        (:func:`repro.check.check_fleet_conservation`): per kind, the
        sum over a fleet's shards must equal the fleet totals exactly.
        Keys absent from a run (no p2p, no overload) report zero.
        """
        return {
            "reads": self.collector.reads,
            "writes": self.collector.writes,
            "p2p": self.collector.p2p,
            "served": self.requests_served or self.collector.count,
            "failed": self.requests_failed,
            "timed_out": self.requests_timed_out,
            "shed": self.requests_shed,
            "row_hits": self.collector.row_hits,
            "nvm_accesses": self.collector.nvm_accesses,
        }

    def speedup_over(self, baseline: "SimResult") -> float:
        """Relative speedup vs a baseline run (0.0 == same runtime)."""
        if self.runtime_ps <= 0:
            return 0.0
        return baseline.runtime_ps / self.runtime_ps - 1.0

    def summary(self) -> str:
        breakdown = self.collector.all
        return (
            f"{self.config_label:>18} {self.workload:<10} "
            f"runtime={self.runtime_ns / 1000.0:9.2f}us "
            f"lat={breakdown.total_ns:7.1f}ns "
            f"(to={breakdown.to_memory_ns:6.1f} in={breakdown.in_memory_ns:6.1f} "
            f"from={breakdown.from_memory_ns:6.1f}) "
            f"rowhit={self.row_hit_rate * 100.0:4.1f}%"
        )


def speedup_percent(result: SimResult, baseline: SimResult) -> float:
    """Speedup of ``result`` over ``baseline`` in percent."""
    return result.speedup_over(baseline) * 100.0
