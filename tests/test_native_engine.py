"""Compiled scheduler backend (``Engine("native")``) and dispatch errors.

The native engine is an optional in-tree C extension; every test that
needs it skips cleanly when it is not built.  Dispatch-error tests run
everywhere: an unknown backend name must fail loudly with an error that
names the valid backends and whether the optional native one is
usable on this machine.

The equivalence tests mirror the wheel suite: the compiled
scheduler, queue and router must be invisible — bit-identical digests
against the heap oracle across topologies with observability and RAS
on, plus a golden-corpus spot replay under the ambient override.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.errors import SimulationError
from repro.net.buffers import InputQueue
from repro.net.packet import Packet, PacketKind
from repro.sim import native
from repro.sim.engine import Engine, backend_status, default_scheduler

from conftest import fast_workload, sim_digest, small_config

needs_native = pytest.mark.skipif(
    not native.available(), reason="compiled engine not built"
)

GOLDENS = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# Backend dispatch: unknown names and unavailable optional backends
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_unknown_backend_raises_with_status(self):
        for unknown in ("quantum", "batch"):
            with pytest.raises(SimulationError) as err:
                Engine(unknown)
            message = str(err.value)
            assert f"backend {unknown!r}" in message
            assert "valid backends" in message
            listed = message.split("valid backends", 1)[1]
            for name in ("'wheel'", "'heap'", "'native'"):
                assert name in listed
            assert "'batch'" not in listed

    def test_unknown_env_engine_raises(self, monkeypatch):
        for unknown in ("turbo", "batch"):
            monkeypatch.setenv("REPRO_ENGINE", unknown)
            with pytest.raises(SimulationError) as err:
                default_scheduler()
            assert f"REPRO_ENGINE={unknown!r}" in str(err.value)
            assert "valid backends" in str(err.value)
            with pytest.raises(SimulationError):
                Engine()

    def test_backend_status_reports_availability(self):
        status = backend_status()
        assert (
            "extension built" if native.available() else "extension not built"
        ) in status
        assert "numpy" not in status

    def test_explicit_native_without_extension_raises(self, monkeypatch):
        monkeypatch.setattr(native, "_module", None)
        monkeypatch.setattr(native, "_import_error", "not built (test)")
        with pytest.raises(SimulationError) as err:
            Engine("native")
        assert "native_build" in str(err.value)

    def test_ambient_native_without_extension_falls_back(self, monkeypatch):
        monkeypatch.setattr(native, "_module", None)
        monkeypatch.setattr(native, "_import_error", "not built (test)")
        monkeypatch.setattr(engine_mod, "_ambient_native_warned", False)
        monkeypatch.setenv("REPRO_ENGINE", "native")
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = Engine()
        assert engine.scheduler == "wheel"


# ---------------------------------------------------------------------------
# Equivalence against the heap oracle
# ---------------------------------------------------------------------------
TOPOLOGIES = ("chain", "ring", "skiplist", "metacube")


@needs_native
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("obs", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("ras", [False, True], ids=["ras-off", "ras-on"])
def test_native_matches_heap(topology, obs, ras):
    config = small_config(topology=topology)
    if obs:
        config = config.with_obs(attribution=True)
    if ras:
        config = config.with_ras(bit_error_rate=1e-6)
    compiled, compiled_events = sim_digest(config, requests=150, scheduler="native")
    heap, heap_events = sim_digest(config, requests=150, scheduler="heap")
    assert compiled == heap
    assert compiled_events == heap_events


@needs_native
def test_native_matches_heap_across_far_horizon():
    config = small_config()
    workload = fast_workload(mean_gap_ns=40.0, burst_size=1.0)
    compiled, _ = sim_digest(config, workload, 120, scheduler="native")
    heap, _ = sim_digest(config, workload, 120, scheduler="heap")
    assert compiled == heap


@needs_native
def test_native_matches_heap_overload():
    """Deadlines + retries exercise request_stop and timer cancels."""
    config = small_config().with_overload(
        deadline_ps=150_000, max_retries=2, retry_backoff_ps=50_000
    )
    workload = fast_workload(arrival="onoff", mean_gap_ns=1.0)
    compiled, _ = sim_digest(config, workload, 150, scheduler="native")
    heap, _ = sim_digest(config, workload, 150, scheduler="heap")
    assert compiled == heap


#: Structurally diverse golden matrix cases for the native spot replay:
#: a plain run, the obs+ras interaction, and the overload machinery.
NATIVE_GOLDEN_SPOTS = ("skiplist/obs+ras", "ring/base", "overload/obs")


@needs_native
@pytest.mark.parametrize("name", NATIVE_GOLDEN_SPOTS)
def test_native_reproduces_goldens(name, monkeypatch):
    from repro.check.goldens import diff_goldens, matrix_cases, run_matrix_case

    monkeypatch.setenv("REPRO_ENGINE", "native")
    recorded = json.loads((GOLDENS / "matrix.json").read_text())
    cases = {n: (c, w) for n, c, w in matrix_cases()}
    config, workload = cases[name]
    entry = run_matrix_case(config, audit=True, workload=workload)
    report = diff_goldens({name: recorded[name]}, {name: entry})
    assert not report, "\n".join(report)


# ---------------------------------------------------------------------------
# Property test: adversarial schedules pop identically to the heap
# ---------------------------------------------------------------------------
WHEEL_PERIOD = 1 << engine_mod.WHEEL_SHIFT

_delays = st.one_of(
    st.integers(min_value=0, max_value=3 * WHEEL_PERIOD),
    st.builds(
        lambda k, off: max(0, k * WHEEL_PERIOD + off),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-2, max_value=2),
    ),
)


def _fire_log(scheduler, initial, chained):
    engine = Engine(scheduler)
    log = []
    followups = {}
    for child, (parent, delay) in enumerate(chained):
        followups.setdefault(parent, []).append((child, delay))

    def fire(eng, tag):
        log.append((eng.now, tag))
        if isinstance(tag, int):
            for child, delay in followups.get(tag, ()):
                eng.schedule(delay, fire, ("chained", child))

    for tag, delay in enumerate(initial):
        engine.schedule(delay, fire, tag)
    engine.run()
    assert engine.integrity_errors() == []
    assert engine.pending == 0
    return log


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(_delays, min_size=1, max_size=24),
    chained=st.lists(
        st.tuples(st.integers(min_value=0, max_value=23), _delays),
        max_size=24,
    ),
)
def test_native_pops_identically_to_heap(initial, chained):
    assert _fire_log("native", initial, chained) == _fire_log(
        "heap", initial, chained
    )


# ---------------------------------------------------------------------------
# NativeQueue duck compatibility with InputQueue
# ---------------------------------------------------------------------------
def _packet(pid_hint: int) -> Packet:
    pkt = Packet(
        kind=PacketKind.READ_REQ,
        address=64 * pid_hint,
        src=-1,
        dest=3,
        size_bits=128,
        create_ps=0,
    )
    pkt.route = [0, 1, 3]
    pkt.hop_index = 0
    return pkt


@needs_native
class TestNativeQueueCompat:
    def test_fifo_and_bookkeeping_match_input_queue(self):
        compiled = native.native_queue_class()("q", 4)
        reference = InputQueue("q", 4)
        for i in range(4):
            compiled.push(_packet(i), 10 * i)
            reference.push(_packet(i), 10 * i)
        assert len(compiled) == len(reference) == 4
        assert not compiled.has_space() and not reference.has_space()
        assert compiled.head_key == reference.head_key
        order_c = [compiled.pop(100).address for _ in range(4)]
        order_r = [reference.pop(100).address for _ in range(4)]
        assert order_c == order_r
        assert compiled.is_empty and reference.is_empty
        assert compiled.total_wait_ps == reference.total_wait_ps
        assert compiled.pushed == reference.pushed
        assert compiled.pops == reference.pops
        assert compiled.popped == reference.popped

    def test_overflow_and_empty_errors(self):
        queue = native.native_queue_class()("q", 1)
        queue.push(_packet(0), 0)
        with pytest.raises(SimulationError):
            queue.push(_packet(1), 0)
        queue.pop(5)
        with pytest.raises(SimulationError):
            queue.pop(5)
        with pytest.raises(SimulationError):
            queue.head()

    def test_remove_keeps_entry_times_aligned(self):
        queue = native.native_queue_class()("q", 8)
        packets = [_packet(i) for i in range(4)]
        for i, pkt in enumerate(packets):
            queue.push(pkt, 10 * i)
        dropped = queue.remove({packets[1], packets[2]})
        assert dropped == 2
        assert queue.packets() == (packets[0], packets[3])
        queue.pop(100)  # entered at t=0 -> wait 100
        queue.pop(100)  # entered at t=30 -> wait 70
        assert queue.total_wait_ps == 170
