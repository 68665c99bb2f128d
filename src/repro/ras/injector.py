"""Runtime fault injection: seeded error draws and failure scheduling.

The :class:`FaultInjector` is created by
:class:`repro.system.MemoryNetworkSystem` only when the config's
:class:`~repro.ras.plan.FaultPlan` is enabled; a disabled plan leaves
every link's ``faults`` slot ``None`` and the hot paths untouched.

Determinism: each link draws from its own :class:`RandomStream` seeded
by ``derive_seed(config.seed, "ras", link.name)``.  Within one
simulation the engine dispatches link sends in a deterministic order,
and the per-link streams are independent of each other, so the same
(seed, plan) pair produces bit-identical results in serial and parallel
runs — the property the RAS determinism tests pin via
:func:`repro.serialization.result_digest`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.ras.plan import FaultPlan
from repro.sim import CounterBag, Engine, RandomStream


class LinkFaultState:
    """Per-link transient-error state attached to ``Link.faults``."""

    __slots__ = ("stream", "ber", "retry_penalty_ps", "max_replays", "stats", "_probs")

    def __init__(
        self,
        stream: RandomStream,
        ber: float,
        retry_penalty_ps: int,
        max_replays: int,
        stats: CounterBag,
    ) -> None:
        self.stream = stream
        self.ber = ber
        self.retry_penalty_ps = retry_penalty_ps
        self.max_replays = max_replays
        self.stats = stats
        self._probs: Dict[int, float] = {}  # packet bits -> P(CRC failure)

    def draw_replays(self, size_bits: int) -> int:
        """Number of CRC-failed attempts before this packet got through."""
        p = self._probs.get(size_bits)
        if p is None:
            # one CRC covers the whole packet: it fails if any bit flipped
            p = self._probs[size_bits] = 1.0 - (1.0 - self.ber) ** size_bits
        replays = 0
        rand = self.stream.random
        while replays < self.max_replays and rand() < p:
            replays += 1
        if replays:
            self.stats.add("ras.crc_errors", replays)
        return replays


class FaultInjector:
    """Binds a :class:`FaultPlan` to a concrete system's links/engine."""

    def __init__(self, plan: FaultPlan, root_seed: int) -> None:
        self.plan = plan
        self.root_seed = root_seed
        self.stats = CounterBag()
        self._overrides: Dict[FrozenSet[int], float] = {
            frozenset((a, b)): rate for a, b, rate in plan.link_error_rates
        }

    # ------------------------------------------------------------------
    def rate_for(self, a: int, b: int, external: bool) -> float:
        """Effective bit-error rate of the (undirected) edge ``a``-``b``."""
        override = self._overrides.get(frozenset((a, b)))
        if override is not None:
            return override
        # The global rate models SerDes lane noise; interposer wires
        # inside a MetaCube package have no SerDes and are exempt.
        return self.plan.bit_error_rate if external else 0.0

    def bind_link(self, link, a: int, b: int, external: bool) -> None:
        """Attach per-link fault state when the edge has a nonzero rate."""
        rate = self.rate_for(a, b, external)
        if rate <= 0.0:
            return
        link.faults = LinkFaultState(
            stream=RandomStream(self.root_seed, "ras", link.name),
            ber=rate,
            retry_penalty_ps=self.plan.retry_penalty_ps,
            max_replays=self.plan.max_replays,
            stats=self.stats,
        )

    def schedule_failures(
        self, engine: Engine, on_link_failure, on_cube_failure
    ) -> None:
        """Arm the plan's permanent failures as absolute-time events."""
        for a, b, time_ps in self.plan.link_failures:
            engine.schedule_at(time_ps, on_link_failure, a, b)
        for cube, time_ps in self.plan.cube_failures:
            engine.schedule_at(time_ps, on_cube_failure, cube)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """RAS counters for ``SimResult.extra`` (sorted, JSON-able)."""
        return {name: float(v) for name, v in self.stats.as_dict().items()}


__all__: Tuple[str, ...] = ("FaultInjector", "LinkFaultState")
