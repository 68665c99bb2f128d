"""Fleet-scale simulation: compose thousands of MN shards.

The paper's §2.3/§5 symmetry argument — host ports are disjoint and
identical — is what lets one simulation stand for a whole memory
network.  This module breaks that symmetry deliberately: a
:class:`FleetConfig` describes ``N`` *shards*, each a full
:class:`~repro.config.SystemConfig` (heterogeneous topology, tech mix,
fault plan), plus a registry of weighted :class:`Tenant`\\ s whose
zipf/uniform address-stream skew and arrival-rate scaling are mapped
onto contiguous shard ranges.  The fleet compiles into per-shard
:class:`~repro.runner.SimJob`\\ s and executes through the existing
:class:`~repro.runner.ParallelRunner`/:class:`~repro.runner.ResultCache`
machinery, so a warm-cache fleet replay costs **zero** simulations.

Aggregation is *streaming*: shard results are folded into a
:class:`FleetResult` the moment they complete (cache hits included) via
:meth:`repro.runner.ParallelRunner.run_fold` and then released — the
fleet never materializes per-shard detail in one process, so peak
resident memory is independent of shard count.  Every fold operation is
exactly commutative (:class:`repro.sim.stats.Histogram`,
:class:`repro.sim.stats.CounterBag`), which is what makes fleet results
bit-identical between ``--jobs 1`` and ``--jobs N`` and between cold and
warm-cache replays.

Determinism contract:

* shard ``i`` runs under seed ``derive_seed(fleet.seed, "fleet", str(i))``
  — shard streams are pairwise disjoint and disjoint from every
  single-MN seed namespace;
* a fleet of identical shards with the default tenant is, shard for
  shard, digest-identical to ``N`` independent single-MN runs;
* :meth:`FleetResult.digest` covers only exactly-reproducible state
  (integer counters, bucket counts, extremes, integer-valued totals).

See ``docs/fleet.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.results import SimResult, make_latency_histogram
from repro.runner.job import SimJob, canonical_tree, digest_tree
from repro.sim.random import derive_seed
from repro.sim.stats import CounterBag
from repro.units import to_ns
from repro.workloads import WorkloadSpec

#: Salt folded into fleet config digests; bump when the compilation
#: scheme (seed derivation, tenant mapping) changes incompatibly.
FLEET_DIGEST_VERSION = "repro-fleet-v1"

#: Version of the :meth:`FleetResult.digest` state schema.
#: v2: tenant latency is a full Histogram state (fixed shape, integer total).
FLEET_RESULT_VERSION = 2


# ---------------------------------------------------------------------------
# Tenant registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Tenant:
    """One tenant class of the fleet's traffic.

    ``weight`` apportions shards (largest-remainder over the registry);
    ``skew`` is the tenant's address-stream Zipf parameter
    (:attr:`repro.workloads.WorkloadSpec.skew`; 0 = uniform); and
    ``rate_scale`` multiplies the tenant's offered arrival rate (the
    base workload's mean gap is divided by it).  The default tenant is
    transparent: weight 1, no skew, unit rate — a single-tenant fleet
    runs the base workload unchanged.
    """

    name: str
    weight: float = 1.0
    skew: float = 0.0
    rate_scale: float = 1.0

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ConfigError(f"tenant {self.name!r}: weight must be positive")
        if not 0.0 <= self.skew < 1.0:
            raise ConfigError(f"tenant {self.name!r}: skew must be in [0, 1)")
        if self.rate_scale <= 0:
            raise ConfigError(
                f"tenant {self.name!r}: rate_scale must be positive"
            )

    def apply(self, workload: WorkloadSpec) -> WorkloadSpec:
        """The tenant's view of the base workload.

        A transparent tenant returns the spec *unchanged* (same object),
        so single-tenant fleets compile to exactly the base workload and
        stay digest-compatible with independent single-MN runs.
        """
        changes: Dict[str, object] = {}
        if self.skew:
            changes["skew"] = self.skew
        if self.rate_scale != 1.0:
            changes["mean_gap_ns"] = workload.mean_gap_ns / self.rate_scale
        return workload.with_(**changes) if changes else workload


# ---------------------------------------------------------------------------
# Fleet configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """N MN shards + a tenant registry, compiled into per-shard jobs."""

    shards: Tuple[SystemConfig, ...]
    workload: WorkloadSpec
    tenants: Tuple[Tenant, ...] = (Tenant("default"),)
    requests_per_shard: int = 2000
    seed: int = 20170624

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.shards:
            raise ConfigError("fleet needs at least one shard")
        if not self.tenants:
            raise ConfigError("fleet needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {sorted(names)}")
        if self.requests_per_shard < 1:
            raise ConfigError("requests_per_shard must be positive")
        for tenant in self.tenants:
            tenant.validate()
        self.workload.validate()
        for index, shard in enumerate(self.shards):
            try:
                shard.validate()
            except ConfigError as exc:
                raise ConfigError(f"shard {index}: {exc}") from exc

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    def shard_tenants(self) -> Tuple[Tenant, ...]:
        """Tenant of each shard (largest-remainder apportionment).

        Tenants occupy contiguous shard ranges, in registry order, with
        sizes proportional to their weights; remainder shards go to the
        largest fractional quotas (ties broken by registry order).
        Purely arithmetic, so the mapping is deterministic and part of
        the fleet digest by construction.
        """
        total_weight = sum(tenant.weight for tenant in self.tenants)
        quotas = [
            tenant.weight / total_weight * self.num_shards
            for tenant in self.tenants
        ]
        counts = [math.floor(quota) for quota in quotas]
        leftovers = self.num_shards - sum(counts)
        by_remainder = sorted(
            range(len(self.tenants)),
            key=lambda i: (-(quotas[i] - counts[i]), i),
        )
        for i in by_remainder[:leftovers]:
            counts[i] += 1
        out: List[Tenant] = []
        for tenant, count in zip(self.tenants, counts):
            out.extend([tenant] * count)
        return tuple(out)

    def shard_seed(self, shard: int) -> int:
        """Per-shard root seed: disjoint across shards and namespaces."""
        return derive_seed(self.seed, "fleet", str(shard))

    def shard_config(self, shard: int) -> SystemConfig:
        return replace(self.shards[shard], seed=self.shard_seed(shard))

    def shard_workload(self, shard: int) -> WorkloadSpec:
        return self.shard_tenants()[shard].apply(self.workload)

    def compile(self) -> List[SimJob]:
        """Per-shard :class:`SimJob`\\ s, each independently cacheable."""
        tenants = self.shard_tenants()
        return [
            SimJob(
                config=replace(self.shards[i], seed=self.shard_seed(i)),
                workload=tenants[i].apply(self.workload),
                requests=self.requests_per_shard,
            )
            for i in range(self.num_shards)
        ]

    def digest(self) -> str:
        """Stable content digest over the whole fleet tree."""
        return digest_tree(
            {
                "version": FLEET_DIGEST_VERSION,
                "fleet": canonical_tree(self),
            }
        )

    def with_(self, **changes) -> "FleetConfig":
        return replace(self, **changes)


def uniform_fleet(
    num_shards: int,
    config: SystemConfig,
    workload: WorkloadSpec,
    requests_per_shard: int = 2000,
    tenants: Tuple[Tenant, ...] = (Tenant("default"),),
    seed: Optional[int] = None,
) -> FleetConfig:
    """A fleet of ``num_shards`` identical shards (symmetry baseline)."""
    return FleetConfig(
        shards=(config,) * num_shards,
        workload=workload,
        tenants=tenants,
        requests_per_shard=requests_per_shard,
        seed=config.seed if seed is None else seed,
    )


# ---------------------------------------------------------------------------
# Streaming aggregation
# ---------------------------------------------------------------------------
class TenantAggregate:
    """Exactly-mergeable rollup of one tenant's shard results.

    Holds only fixed-size, order-invariant state: a :class:`CounterBag`
    over the :meth:`repro.results.SimResult.per_kind_counts` schema, a
    :class:`~repro.sim.stats.Histogram` merging the end-to-end latency
    histograms, and integer runtime totals.  Folding the same shard
    results in any order — or merging partial aggregates over any
    partition — yields bit-identical state.
    """

    __slots__ = ("shards", "counters", "runtime_ps_total", "runtime_ps_max",
                 "events", "latency")

    def __init__(self) -> None:
        self.shards = 0
        self.counters = CounterBag()
        self.runtime_ps_total = 0
        self.runtime_ps_max = 0
        self.events = 0
        self.latency = make_latency_histogram()

    def fold(self, result: SimResult) -> None:
        """Fold one shard's result in; keeps no reference to it."""
        self.shards += 1
        self.counters.fold_dict(result.per_kind_counts())
        self.runtime_ps_total += result.runtime_ps
        if result.runtime_ps > self.runtime_ps_max:
            self.runtime_ps_max = result.runtime_ps
        self.events += result.events_processed
        self.latency.merge(result.collector.all.total_hist)

    def merge(self, other: "TenantAggregate") -> None:
        self.shards += other.shards
        self.counters.merge(other.counters)
        self.runtime_ps_total += other.runtime_ps_total
        if other.runtime_ps_max > self.runtime_ps_max:
            self.runtime_ps_max = other.runtime_ps_max
        self.events += other.events
        self.latency.merge(other.latency)

    # -- derived metrics (computed from exact state at report time) ----
    @property
    def requests(self) -> int:
        get = self.counters.get
        return get("reads") + get("writes") + get("p2p")

    @property
    def availability(self) -> float:
        served = self.counters.get("served")
        total = served + self.counters.get("failed")
        return served / total if total else 1.0

    @property
    def goodput_rps(self) -> float:
        """Requests served per second of *fleet* time.

        Shards run concurrently, so fleet throughput is total served
        work divided by the mean shard runtime.  Derived from integer
        sums only, so it is fold-order independent.
        """
        if self.shards == 0 or self.runtime_ps_total <= 0:
            return 0.0
        mean_runtime_ps = self.runtime_ps_total / self.shards
        return self.counters.get("served") / (mean_runtime_ps * 1e-12)

    def percentile_ns(self, fraction: float) -> Optional[float]:
        """Latency percentile in ns; ``None`` when no requests landed."""
        if self.latency.count == 0:
            return None
        return to_ns(self.latency.percentile(fraction))

    def tails_ns(self) -> Dict[str, Optional[float]]:
        return {
            "p50": self.percentile_ns(0.50),
            "p95": self.percentile_ns(0.95),
            "p99": self.percentile_ns(0.99),
        }

    @property
    def mean_latency_ns(self) -> float:
        return to_ns(self.latency.mean)

    def state(self) -> Dict[str, object]:
        """Canonical JSON-able dump of the exact state."""
        return {
            "shards": self.shards,
            "counters": self.counters.as_dict(),
            "runtime_ps_total": self.runtime_ps_total,
            "runtime_ps_max": self.runtime_ps_max,
            "events": self.events,
            "latency": self.latency.state(),
        }


class FleetResult:
    """Streaming rollup of a fleet run: per-tenant and fleet totals.

    Built incrementally by :func:`run_fleet`'s fold callback; detail
    never accumulates — each shard's :class:`SimResult` is folded into
    the owning tenant's aggregate *and* the fleet total, then released.
    ``simulations_run`` records how many shards actually simulated
    (zero on a warm-cache replay); it is deliberately excluded from
    :meth:`digest`, which must be identical cold and warm.
    """

    def __init__(self, fleet: FleetConfig) -> None:
        self.fleet_digest = fleet.digest()
        self.expected_shards = fleet.num_shards
        self.requests_per_shard = fleet.requests_per_shard
        self.tenants: Dict[str, TenantAggregate] = {
            tenant.name: TenantAggregate() for tenant in fleet.tenants
        }
        self.total = TenantAggregate()
        self.shards_folded = 0
        self.simulations_run = 0
        self.failures: List[object] = []

    def fold(self, shard: int, tenant: str, result: SimResult) -> None:
        """Fold one shard's result into its tenant and the fleet total."""
        if tenant not in self.tenants:
            raise ConfigError(f"unknown tenant {tenant!r} for shard {shard}")
        self.tenants[tenant].fold(result)
        self.total.fold(result)
        self.shards_folded += 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Canonical, JSON-able view of the aggregate state."""
        return {
            "fleet": self.fleet_digest,
            "expected_shards": self.expected_shards,
            "shards_folded": self.shards_folded,
            "tenants": {
                name: agg.state() for name, agg in sorted(self.tenants.items())
            },
            "total": self.total.state(),
        }

    def digest(self) -> str:
        """Stable digest of the exact aggregate state.

        Identical across fold orders, worker counts, engines, and
        cold/warm replays — the fleet-level analogue of
        :func:`repro.serialization.result_digest`.
        """
        return digest_tree(
            {"version": FLEET_RESULT_VERSION, "result": self.to_dict()}
        )

    def report(self) -> Dict[str, object]:
        """Headline metrics per tenant plus fleet-wide (derived view)."""
        def row(agg: TenantAggregate) -> Dict[str, object]:
            return {
                "shards": agg.shards,
                "requests": agg.requests,
                "availability": agg.availability,
                "goodput_rps": agg.goodput_rps,
                "mean_latency_ns": agg.mean_latency_ns,
                **agg.tails_ns(),
            }

        out: Dict[str, object] = {
            name: row(agg) for name, agg in sorted(self.tenants.items())
        }
        out["fleet"] = row(self.total)
        return out

    def summary(self) -> str:
        lines = [
            f"fleet: {self.shards_folded}/{self.expected_shards} shards, "
            f"{self.total.requests} requests, "
            f"availability={self.total.availability:.4f}"
        ]
        for name, agg in sorted(self.tenants.items()):
            tails = agg.tails_ns()
            p99 = tails["p99"]
            lines.append(
                f"  {name:>12}: shards={agg.shards:<4d} "
                f"req={agg.requests:<8d} "
                f"p99={'-' if p99 is None else format(p99, '.1f')}ns "
                f"avail={agg.availability:.4f} "
                f"goodput={agg.goodput_rps / 1e6:.2f}M/s"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def run_fleet(
    fleet: FleetConfig,
    runner=None,
    on_error: str = "raise",
) -> FleetResult:
    """Compile and execute a fleet, streaming shards into a FleetResult.

    Runs through the given (or ambient) runner, so shard jobs dedupe by
    content digest, checkpoint to the cache as they finish, and replay
    for free when warm.  With ambient audits enabled
    (:func:`repro.check.audits_enabled`), the fleet conservation
    invariant — per-kind shard sums equal fleet totals — is verified
    before returning.  ``on_error="collect"`` records
    :class:`~repro.runner.JobFailure` rows on ``result.failures``
    instead of raising; failed shards are simply not folded.
    """
    fleet.validate()
    if runner is None:
        from repro.runner import get_runner

        runner = get_runner()
    jobs = fleet.compile()
    tenant_names = [tenant.name for tenant in fleet.shard_tenants()]
    result = FleetResult(fleet)

    def fold(index: int, job: SimJob, shard_result: SimResult) -> None:
        result.fold(index, tenant_names[index], shard_result)

    before = runner.simulations_run
    rows = runner.run_fold(jobs, fold, on_error=on_error)
    result.simulations_run = runner.simulations_run - before
    result.failures = [row for row in rows if row is not None]

    from repro.check import audits_enabled, check_fleet_conservation

    if audits_enabled():
        check_fleet_conservation(result)
    return result
