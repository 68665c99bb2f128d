"""Exact statistics collectors used throughout the simulator."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union


class HistogramShapeError(ValueError):
    """Two histograms with different bucket shapes were merged.

    Merging a ``width x count`` histogram into one with different bin
    edges would silently misbin every sample; the mismatch is raised by
    name instead.  Subclasses :class:`ValueError` so pre-existing
    callers that caught the generic error keep working.
    """


class Histogram:
    """Exact fixed-width bucket histogram: the simulator's one distribution.

    Bucket ``i`` covers ``[i * bucket_width, (i + 1) * bucket_width)``.
    Negative samples land in ``underflow``; samples at or beyond the
    bucketed range land in ``overflow``.  Both are part of ``count`` and
    both participate in :meth:`percentile`, which clamps out-of-range
    answers to the observed extremes instead of fabricating a midpoint.

    Alongside the buckets it keeps ``count``, ``total``, ``min`` and
    ``max``.  Samples are integer picoseconds or hop counts, so
    ``total`` stays an exact int and :meth:`merge` (integer additions
    and extreme comparisons) is exactly commutative and associative:
    any fold order over any partition of the same samples produces the
    same :meth:`state`.
    """

    __slots__ = (
        "bucket_width",
        "buckets",
        "underflow",
        "overflow",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(self, bucket_width: float, num_buckets: int = 64) -> None:
        if bucket_width <= 0 or num_buckets <= 0:
            raise ValueError("bucket_width and num_buckets must be positive")
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        if value < 0:
            # int() truncates toward zero, so (-width, 0) would otherwise
            # alias into bucket 0; negatives are counted out-of-range.
            self.underflow += 1
            return
        index = int(value / self.bucket_width)
        if index < len(self.buckets):
            self.buckets[index] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Approximate percentile from bucket midpoints (0 < fraction <= 1)."""
        return self.percentile_detail(fraction)[0]

    def percentile_detail(self, fraction: float) -> Tuple[float, bool]:
        """Percentile plus whether it fell outside the bucketed range.

        Returns ``(value, clamped)``.  ``clamped`` is True when the
        requested fraction lands in the underflow/overflow tail, in which
        case ``value`` is the observed min/max rather than a bucket
        midpoint.  An empty histogram reports ``(0.0, False)``.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0, False
        target = fraction * self.count
        seen = self.underflow
        if self.underflow and seen >= target:
            return float(self.min), True
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return (i + 0.5) * self.bucket_width, False
        # The percentile sits among overflowed samples: clamp to the
        # largest value actually observed instead of inventing one.
        return float(self.max), True

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (exact, order-invariant).

        An empty ``other`` is a no-op whatever its shape, so a shard that
        completed zero requests cannot break a fold.  Any other shape
        mismatch raises :class:`HistogramShapeError` — merging across bin
        edges would misbin silently.
        """
        if other.count == 0:
            return
        if (
            other.bucket_width != self.bucket_width
            or len(other.buckets) != len(self.buckets)
        ):
            raise HistogramShapeError(
                f"cannot merge histograms with different shapes: "
                f"{self.bucket_width}x{len(self.buckets)} vs "
                f"{other.bucket_width}x{len(other.buckets)}"
            )
        for i, n in enumerate(other.buckets):
            if n:
                self.buckets[i] += n
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self.total += other.total
        if self.min is None or other.min < self.min:
            self.min = other.min
        if self.max is None or other.max > self.max:
            self.max = other.max

    def state(self) -> Dict[str, object]:
        """Canonical JSON-able dump; buckets are sparse ``[index, n]`` pairs
        (latency histograms have 1024 buckets, a handful populated)."""
        return {
            "bucket_width": self.bucket_width,
            "num_buckets": len(self.buckets),
            "buckets": [[i, n] for i, n in enumerate(self.buckets) if n],
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "Histogram":
        """Rebuild a histogram from :meth:`state` output.

        Values are taken verbatim: JSON preserves the int/float
        distinction, and coercing here would make a round-tripped result
        hash differently from the freshly computed one.
        """
        hist = cls(state["bucket_width"], state["num_buckets"])
        for index, n in state["buckets"]:
            hist.buckets[index] = n
        hist.underflow = state["underflow"]
        hist.overflow = state["overflow"]
        hist.count = state["count"]
        hist.total = state["total"]
        hist.min = state["min"]
        hist.max = state["max"]
        return hist


class CounterBag:
    """Named integer counters with exact, order-invariant merging.

    Integer addition commutes exactly, so a bag folded in any completion
    order holds identical values.  Non-integral amounts are rejected
    rather than silently truncated — fleet per-kind conservation (shard
    sums == fleet totals) only holds over exact arithmetic.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add(self, name: str, amount: Union[int, float] = 1) -> None:
        if isinstance(amount, float):
            if not amount.is_integer():
                raise ValueError(
                    f"counter {name!r}: non-integral amount {amount!r}"
                )
            amount = int(amount)
        if amount:
            self.counts[name] = self.counts.get(name, 0) + amount

    def fold_dict(self, mapping: Mapping[str, Union[int, float]]) -> None:
        for name, amount in mapping.items():
            self.add(name, amount)

    def merge(self, other: "CounterBag") -> None:
        self.fold_dict(other.counts)

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: self.counts[name] for name in sorted(self.counts)}
