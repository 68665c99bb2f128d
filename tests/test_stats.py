"""Tests for statistics collectors."""

import json

import pytest

from repro.sim.stats import CounterBag, Histogram, HistogramShapeError


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(bucket_width=10, num_buckets=4)
        for value in (0, 5, 15, 35):
            hist.add(value)
        assert hist.buckets == [2, 1, 0, 1]
        assert hist.overflow == 0

    def test_overflow(self):
        hist = Histogram(bucket_width=1, num_buckets=2)
        hist.add(100)
        assert hist.overflow == 1

    def test_percentile(self):
        hist = Histogram(bucket_width=10, num_buckets=10)
        for value in range(100):
            hist.add(value)
        assert hist.percentile(0.5) == pytest.approx(45.0, abs=10)
        assert hist.percentile(1.0) == pytest.approx(95.0, abs=10)

    def test_percentile_empty(self):
        hist = Histogram(bucket_width=10)
        assert hist.percentile(0.5) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Histogram(bucket_width=0)
        with pytest.raises(ValueError):
            Histogram(bucket_width=1, num_buckets=0)
        hist = Histogram(bucket_width=1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)

    def test_negative_values_count_as_underflow(self):
        # int() truncates toward zero, so without the explicit underflow
        # counter every value in (-width, 0) would alias into bucket 0.
        hist = Histogram(bucket_width=10, num_buckets=4)
        hist.add(-0.5)
        hist.add(-25)
        hist.add(3)
        assert hist.underflow == 2
        assert hist.buckets == [1, 0, 0, 0]
        assert hist.count == 3

    def test_percentile_in_underflow_clamps_to_min(self):
        hist = Histogram(bucket_width=10, num_buckets=4)
        hist.add(-7)
        hist.add(-3)
        hist.add(5)
        value, clamped = hist.percentile_detail(0.5)
        assert value == -7.0  # clamped to the observed minimum
        assert clamped is True

    def test_percentile_in_overflow_clamps_to_max(self):
        hist = Histogram(bucket_width=10, num_buckets=2)
        hist.add(5)
        hist.add(500)
        hist.add(900)
        value, clamped = hist.percentile_detail(1.0)
        assert value == 900.0
        assert clamped is True
        # the in-range percentile is untouched by the clamp logic
        value, clamped = hist.percentile_detail(0.3)
        assert value == 5.0
        assert clamped is False

    def test_percentile_detail_in_range_not_clamped(self):
        hist = Histogram(bucket_width=10, num_buckets=10)
        for value in range(100):
            hist.add(value)
        value, clamped = hist.percentile_detail(0.5)
        assert clamped is False
        assert value == pytest.approx(45.0, abs=10)

    def test_merge_matches_sequential(self):
        a = Histogram(bucket_width=10, num_buckets=4)
        b = Histogram(bucket_width=10, num_buckets=4)
        c = Histogram(bucket_width=10, num_buckets=4)
        for value in (-5, 3, 15, 99):
            a.add(value)
            c.add(value)
        for value in (7, 200, -1):
            b.add(value)
            c.add(value)
        a.merge(b)
        assert a.state() == c.state()

    def test_merge_shape_mismatch_rejected(self):
        base = Histogram(bucket_width=10, num_buckets=4)
        for other in (
            Histogram(bucket_width=5, num_buckets=4),
            Histogram(bucket_width=10, num_buckets=8),
        ):
            other.add(1)
            with pytest.raises(HistogramShapeError, match="different shapes"):
                base.merge(other)

    def test_merge_of_empty_is_shape_neutral(self):
        base = Histogram(bucket_width=10, num_buckets=4)
        base.add(12)
        before = base.state()
        base.merge(Histogram(bucket_width=999, num_buckets=3))
        assert base.state() == before

    def test_merge_into_empty(self):
        a = Histogram(bucket_width=10, num_buckets=4)
        b = Histogram(bucket_width=10, num_buckets=4)
        b.add(4)
        a.merge(b)
        assert a.state() == b.state()

    def test_exact_moments(self):
        hist = Histogram(bucket_width=10, num_buckets=4)
        assert hist.mean == 0.0
        assert hist.min is None and hist.max is None
        for value in (3, -1, 10):
            hist.add(value)
        assert hist.count == 3
        assert hist.total == 12 and isinstance(hist.total, int)
        assert hist.mean == 4.0
        assert hist.min == -1 and hist.max == 10

    def test_state_round_trip(self):
        hist = Histogram(bucket_width=10, num_buckets=4)
        for value in (-5, 3, 15, 99, 7):
            hist.add(value)
        clone = Histogram.from_state(json.loads(json.dumps(hist.state())))
        assert clone.state() == hist.state()
        assert clone.buckets == hist.buckets
        assert clone.percentile(0.5) == hist.percentile(0.5)


class TestCounterBag:
    def test_counters(self):
        bag = CounterBag()
        bag.add("hits")
        bag.add("hits", 2)
        assert bag.get("hits") == 3
        assert bag.get("absent") == 0

    def test_as_dict_sorted(self):
        bag = CounterBag()
        bag.add("b")
        bag.add("a", 4)
        assert list(bag.as_dict().items()) == [("a", 4), ("b", 1)]

    def test_non_integral_amount_rejected(self):
        with pytest.raises(ValueError, match="non-integral"):
            CounterBag().add("x", 0.5)
