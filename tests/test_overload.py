"""Overload robustness tests: open-loop arrivals, deadlines with retry,
admission control, their invariants, and digest transparency."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import OverloadConfig, SystemConfig
from repro.errors import ConfigError, WorkloadError
from repro.runner.job import SimJob, canonical_tree
from repro.serialization import result_digest, result_from_state, result_to_state
from repro.units import ns
from repro.workloads.base import VALID_ARRIVALS

from conftest import fast_workload, run_sim, run_system, sim_digest, small_config


def overload_config(**overrides) -> SystemConfig:
    """Skip-list system with deadlines, bounded retry and shedding."""
    defaults = dict(
        deadline_ps=ns(150),
        max_retries=2,
        retry_backoff_ps=ns(50),
        shed_high=96,
        shed_low=48,
    )
    defaults.update(overrides)
    return small_config(topology="skiplist").with_overload(**defaults)


def open_workload(**overrides):
    """Bursty open-loop arrivals at twice the closed-loop rate."""
    defaults = dict(arrival="onoff", mean_gap_ns=1.0, on_fraction=0.5, on_burst=16.0)
    defaults.update(overrides)
    return fast_workload(**defaults)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
class TestArrivalValidation:
    def test_valid_arrivals(self):
        assert VALID_ARRIVALS == ("closed", "poisson", "onoff")
        for arrival in VALID_ARRIVALS:
            fast_workload(arrival=arrival).validate()

    def test_unknown_arrival_rejected(self):
        with pytest.raises(WorkloadError, match="arrival"):
            fast_workload(arrival="openloop").validate()

    def test_on_fraction_range(self):
        with pytest.raises(WorkloadError, match="on_fraction"):
            fast_workload(arrival="onoff", on_fraction=0.0).validate()
        with pytest.raises(WorkloadError, match="on_fraction"):
            fast_workload(arrival="onoff", on_fraction=1.5).validate()

    def test_on_burst_minimum(self):
        with pytest.raises(WorkloadError, match="on_burst"):
            fast_workload(arrival="onoff", on_burst=0.5).validate()

    def test_is_open_loop(self):
        assert not fast_workload().is_open_loop
        assert fast_workload(arrival="poisson").is_open_loop
        assert fast_workload(arrival="onoff").is_open_loop


class TestOverloadConfigValidation:
    def test_default_is_off(self):
        plan = OverloadConfig()
        assert not plan.enabled
        assert not plan.deadlines_enabled
        assert not plan.shedding_enabled
        plan.validate()

    def test_negative_fields_rejected(self):
        for field_name in ("deadline_ps", "max_retries", "retry_backoff_ps",
                           "shed_high", "shed_low"):
            with pytest.raises(ConfigError, match=field_name):
                replace(OverloadConfig(), **{field_name: -1}).validate()

    def test_watermark_ordering(self):
        with pytest.raises(ConfigError, match="shed_low"):
            OverloadConfig(shed_high=10, shed_low=20).validate()

    def test_retries_require_deadline(self):
        with pytest.raises(ConfigError, match="max_retries"):
            OverloadConfig(max_retries=3).validate()

    def test_with_overload_helper(self):
        config = small_config().with_overload(deadline_ps=ns(500), shed_high=8)
        assert config.overload.deadline_ps == ns(500)
        assert config.overload.enabled
        config.validate()
        # ... and the original default stays untouched / disabled.
        assert not small_config().overload.enabled


# ---------------------------------------------------------------------------
# Digest transparency: overload-off configs digest exactly as before
# ---------------------------------------------------------------------------
class TestDigestTransparency:
    def test_default_overload_absent_from_canonical_tree(self):
        tree = canonical_tree(small_config())
        assert "overload" not in tree
        tree = canonical_tree(fast_workload())
        assert "arrival" not in tree
        assert "on_fraction" not in tree
        assert "on_burst" not in tree

    def test_enabled_overload_enters_the_digest(self):
        base = SimJob(config=small_config(), workload=fast_workload(),
                      requests=50)
        loaded = SimJob(config=overload_config(), workload=fast_workload(),
                        requests=50)
        open_wl = SimJob(config=small_config(), workload=open_workload(),
                         requests=50)
        assert base.digest() != loaded.digest()
        assert base.digest() != open_wl.digest()
        tree = canonical_tree(overload_config())
        assert tree["overload"]["deadline_ps"] == ns(150)

    def test_explicit_defaults_digest_like_omitted(self):
        explicit = replace(small_config(), overload=OverloadConfig())
        assert (
            SimJob(config=explicit, workload=fast_workload(), requests=50).digest()
            == SimJob(config=small_config(), workload=fast_workload(),
                      requests=50).digest()
        )


# ---------------------------------------------------------------------------
# Behaviour under overload
# ---------------------------------------------------------------------------
class TestOverloadBehaviour:
    REQUESTS = 150

    def run_overloaded(self, config=None, workload=None, **kwargs):
        return run_system(
            config if config is not None else overload_config(),
            workload if workload is not None else open_workload(),
            requests=self.REQUESTS,
            audit=True,
            **kwargs,
        )

    def test_conservation_and_dispositions(self):
        system, result = self.run_overloaded()
        extra = result.extra
        generated = extra["overload.generated"]
        assert generated == self.REQUESTS
        assert (
            extra["overload.completed"]
            + extra["overload.timed_out"]
            + extra["overload.shed"]
            + result.requests_failed
            == generated
        )
        # The tight deadline and the bursty open loop exercise every
        # disposition in this regime.
        assert extra["overload.timed_out"] > 0
        assert extra["overload.shed"] > 0
        assert extra["overload.retries"] > 0
        assert extra["overload.retries"] <= extra["overload.timeouts"]

    def test_backlog_bounded_by_watermark(self):
        system, result = self.run_overloaded()
        assert result.extra["overload.peak_backlog"] <= 96
        assert system.port.peak_backlog == result.extra["overload.peak_backlog"]

    def test_no_shedding_backlog_grows_past_watermark(self):
        _, result = self.run_overloaded(
            config=overload_config(shed_high=0, shed_low=0)
        )
        assert result.extra["overload.shed"] == 0
        assert result.extra["overload.peak_backlog"] > 96

    def test_open_loop_without_deadlines_completes_everything(self):
        _, result = self.run_overloaded(config=small_config(topology="skiplist"))
        extra = result.extra
        assert extra["overload.completed"] == extra["overload.generated"]
        assert extra["overload.timed_out"] == 0
        assert extra["overload.shed"] == 0

    def test_closed_loop_reports_no_overload_extras(self):
        result = run_sim(requests=self.REQUESTS, audit=True)
        assert not any(key.startswith("overload.") for key in result.extra)

    def test_result_properties(self):
        _, result = self.run_overloaded()
        assert result.requests_timed_out > 0
        assert result.requests_shed > 0
        assert 0.0 < result.deadline_miss_rate < 1.0
        assert result.goodput_rps > 0.0

    def test_overload_extras_roundtrip(self):
        _, result = self.run_overloaded()
        restored = result_from_state(result_to_state(result))
        assert restored.requests_timed_out == result.requests_timed_out
        assert restored.requests_shed == result.requests_shed
        assert result_digest(restored) == result_digest(result)

    def test_deterministic_reruns(self):
        first = self.run_overloaded()[1]
        second = self.run_overloaded()[1]
        assert result_digest(first) == result_digest(second)


class TestEngineEquivalence:
    def test_overload_digest_identical_across_engines(self):
        config = overload_config().with_obs(attribution=True)
        workload = open_workload()
        schedulers = ["heap", "wheel"]
        digests = {
            scheduler: sim_digest(
                config, workload, requests=150, scheduler=scheduler, audit=True
            )
            for scheduler in schedulers
        }
        assert len(set(digests.values())) == 1, digests


class TestAttributionTiling:
    def test_timeout_and_retry_segments_tile_exactly(self):
        _, result = run_system(
            overload_config().with_obs(attribution=True),
            open_workload(),
            requests=150,
            audit=True,
        )
        segments = result.collector.segments
        assert any(label.startswith("host.timeout.") for label in segments)
        assert any(label.startswith("host.retry.") for label in segments)
        # Overload dead time is attributed, never leaked: the residual
        # pseudo-segment stays identically zero across every retry.
        unattributed = segments.get("unattributed")
        assert unattributed is None or unattributed.total == 0
