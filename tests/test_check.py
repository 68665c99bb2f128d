"""Tests for the repro.check invariant-audit subsystem.

Positive direction: healthy and degraded runs pass every audit, and an
audited run is bit-identical to an unaudited one (audits verify, they
never perturb).  Negative direction: three injected defects — a stolen
credit, a leaked packet, a stale timing-wheel entry — must each be
caught by its named invariant, with reproduction context attached, and
every port invariant names a corrupted ledger or backlog.
"""

from __future__ import annotations

import pytest

from repro.check import (
    InvariantViolation,
    audits,
    audits_enabled,
    set_audits,
)
from repro.net.packet import READ, WRITE, Transaction
from repro.serialization import result_digest
from repro.sim.engine import WHEEL_SHIFT, Engine
from repro.system import MemoryNetworkSystem

from conftest import fast_workload, run_sim, run_system, small_config


def _audited_system(config=None, requests=120):
    return MemoryNetworkSystem(
        config if config is not None else small_config(),
        fast_workload(),
        requests=requests,
        audit=True,
    )


# ---------------------------------------------------------------------------
# Enablement plumbing
# ---------------------------------------------------------------------------
class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        system, _ = run_system(requests=20)
        assert system.auditor is None

    def test_explicit_param(self):
        system, _ = run_system(requests=20, audit=True)
        assert system.auditor is not None
        assert system.auditor.audits_run >= 1  # at least the final audit

    def test_ambient_flag_and_restore(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert not audits_enabled()
        previous = set_audits(True)
        try:
            assert previous is False
            assert audits_enabled()
            system, _ = run_system(requests=20)
            assert system.auditor is not None
        finally:
            set_audits(previous)
        assert not audits_enabled()

    def test_context_manager(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        with audits():
            system, _ = run_system(requests=20)
            assert system.auditor is not None
        assert not audits_enabled()

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert audits_enabled()
        system, _ = run_system(requests=20)
        assert system.auditor is not None
        monkeypatch.setenv("REPRO_AUDIT", "0")
        assert not audits_enabled()

    def test_explicit_off_overrides_ambient(self):
        with audits():
            system, _ = run_system(requests=20, audit=False)
            assert system.auditor is None


# ---------------------------------------------------------------------------
# Audits verify, never perturb
# ---------------------------------------------------------------------------
class TestDigestIdentity:
    @pytest.mark.parametrize("topology", ["chain", "ring", "skiplist"])
    def test_audited_run_is_bit_identical(self, topology):
        config = small_config(topology=topology).with_obs(attribution=True)
        plain = run_sim(config, requests=100, audit=False)
        audited = run_sim(config, requests=100, audit=True)
        assert result_digest(plain) == result_digest(audited)

    def test_audited_degraded_run_is_bit_identical(self):
        config = small_config(topology="chain").with_ras(
            link_failures=((2, 3, 300_000),)
        )
        plain = run_sim(config, requests=100, audit=False)
        audited = run_sim(config, requests=100, audit=True)
        assert result_digest(plain) == result_digest(audited)
        assert audited.requests_failed > 0  # the degraded path was taken


# ---------------------------------------------------------------------------
# Healthy and degraded runs pass every audit point
# ---------------------------------------------------------------------------
class TestHealthyAudits:
    def test_metacube_with_obs_and_ras_noise(self):
        config = (
            small_config(topology="metacube")
            .with_obs(attribution=True)
            .with_ras(bit_error_rate=1e-6)
        )
        system = _audited_system(config, requests=150)
        system.run()  # no InvariantViolation
        assert system.auditor.audits_run >= 1

    def test_quiesce_audits_on_permanent_failure(self):
        config = small_config(topology="ring").with_ras(
            link_failures=((1, 2, 300_000),)
        )
        system = _audited_system(config, requests=150)
        result = system.run()
        # ras-quiesce + final: the reroute path was audited mid-run.
        assert system.auditor.audits_run >= 2
        assert result.requests_failed == 0

    def test_degraded_final_audit_tolerates_failed_strands(self):
        # A cut chain fails the far cubes; the relaxed final audit must
        # accept stranded *failed* work but still run to completion.
        config = small_config(topology="chain").with_ras(
            link_failures=((2, 3, 300_000),)
        )
        system = _audited_system(config, requests=150)
        result = system.run()
        assert result.requests_failed > 0
        assert system.auditor.audits_run >= 2


# ---------------------------------------------------------------------------
# Injected defects: each caught by its named invariant
# ---------------------------------------------------------------------------
class TestInjectedDefects:
    def _credited_link(self, system):
        for link, _kind in system._links:
            if link.credits is not None and link.credits > 0:
                return link
        raise AssertionError("no credited link in the system")

    def test_dropped_credit_caught(self):
        system = _audited_system()

        def steal(engine):
            link = self._credited_link(system)
            link._credits -= 1

        system.engine.schedule(400_000, steal)
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        assert "credit.conservation" in excinfo.value.invariants()

    def test_leaked_packet_caught(self):
        system = _audited_system()

        def leak(engine):
            for link, _kind in system._links:
                queue = link.dst_queue
                if len(queue):
                    # Bypass pop(): no counter bump, no credit return.
                    items = queue._items
                    if hasattr(items, "popleft"):
                        items.popleft()
                        queue._entry_times.popleft()
                    else:
                        # native C queue: _items is a plain list and the
                        # entry-time view realigns itself
                        del items[0]
                    return
            engine.schedule(10_000, leak)

        system.engine.schedule(400_000, leak)
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        assert "queue.accounting" in excinfo.value.invariants()

    def test_stale_wheel_entry_caught(self):
        # White-box: reaches into the timing wheel's far map, so pin
        # the wheel scheduler regardless of any ambient REPRO_ENGINE.
        system = MemoryNetworkSystem(
            small_config(),
            fast_workload(),
            requests=40,
            audit=True,
            engine=Engine("wheel"),
        )
        system.run()
        engine = system.engine
        # File a far-bucket entry without registering its bucket index
        # (or the pending count): the classic stale-wheel-entry bug.
        index = (engine.now >> WHEEL_SHIFT) + 1000
        engine._far[index] = [
            (index << WHEEL_SHIFT, engine._seq, lambda eng: None, ())
        ]
        names = {v[0] for v in system.auditor.collect("final")}
        assert names == {"engine.integrity"}

    def test_violation_carries_reproduction_context(self):
        system = _audited_system()
        system.engine.schedule(
            400_000, lambda eng: self._steal_one(system)
        )
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        violation = excinfo.value
        assert violation.context["workload"] == "TEST"
        assert violation.context["seed"] == system.config.seed
        assert violation.context["requests"] == system.requests
        assert violation.context["scheduler"] == system.engine.scheduler
        assert violation.context["point"] in ("final", "stall")
        # Each violation is a (invariant, component, detail) triple and
        # all of it lands in the printable message.
        invariant, component, detail = violation.violations[0]
        assert invariant in str(violation)
        assert component in str(violation)
        assert detail in str(violation)

    def _steal_one(self, system):
        self._credited_link(system)._credits -= 1


# ---------------------------------------------------------------------------
# Port invariants: each corrupted ledger or backlog caught by name
# ---------------------------------------------------------------------------
def _overflow_read_window(port):
    port.outstanding_by[READ] = port.window + 1


def _orphan_pending(port):
    # in the backlog, but in none of the per-kind split lists
    port.pending.append(Transaction(0x40, False, port.port_id, 0))


def _phantom_write_slot(port):
    port.outstanding_by[WRITE] += 1


def _lose_completed_read(port):
    port.completed_by[READ] -= 1


def _double_settle_write(port):
    port.completed_by[WRITE] = port.generated_by[WRITE] + 1


def _overshoot_peak_backlog(port):
    port.peak_backlog = port.config.overload.shed_high + 1


class TestPortInvariants:
    @pytest.mark.parametrize(
        "invariant, corrupt",
        [
            pytest.param(invariant, corrupt, id=invariant)
            for invariant, corrupt in (
                ("port.window", _overflow_read_window),
                ("port.backlog", _orphan_pending),
                ("port.directory", _phantom_write_slot),
                ("txn.conservation", _lose_completed_read),
                ("overload.conservation", _double_settle_write),
                ("overload.backlog", _overshoot_peak_backlog),
            )
        ],
    )
    def test_corrupted_port_state_caught(self, invariant, corrupt):
        # Shedding arms the overload checks without open-loop arrivals,
        # so the window bounds stay checkable too.
        config = small_config().with_overload(shed_high=96, shed_low=48)
        system, _ = run_system(config, requests=120, audit=True)
        port = system.port
        assert port.generated_by[READ] and port.generated_by[WRITE]
        assert system.auditor.collect("final") == []
        corrupt(port)
        names = {v[0] for v in system.auditor.collect("final")}
        assert invariant in names
