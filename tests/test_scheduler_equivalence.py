"""Scheduler equivalence: the scheduler choice must be invisible.

The two-tier timing wheel (``Engine("wheel")``) exists purely for
throughput; the plain binary heap (``Engine("heap")``) is the
reference.  Both share the ``(time, seq)`` ordering contract, so every
simulation must produce bit-identical results — same digest, same
event count — regardless of which scheduler dispatched it, across every
topology and with the observability and RAS layers on or off.  The
property tests at the bottom drive the same contract with adversarial
schedules: random delays biased onto the wheel-bucket boundaries,
re-entrant scheduling from inside callbacks, and per-link FIFO delivery
ordering through same-timestamp sends.  The compiled ``native`` backend
has its own heap-oracle suite in ``test_native_engine.py`` and joins
the FIFO property here when it is built.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import native
from repro.sim.engine import WHEEL_SHIFT, Engine
from repro.system import MemoryNetworkSystem

from conftest import fast_workload, sim_digest, small_config

TOPOLOGIES = ("chain", "ring", "skiplist", "metacube")


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("obs", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("ras", [False, True], ids=["ras-off", "ras-on"])
def test_wheel_matches_heap(topology, obs, ras):
    config = small_config(topology=topology)
    if obs:
        config = config.with_obs(attribution=True)
    if ras:
        # A noisy plan exercises link replays; the draw is seed-derived,
        # so both schedulers must see identical fault sequences.
        config = config.with_ras(bit_error_rate=1e-6)
    wheel, wheel_events = sim_digest(config, requests=150, scheduler="wheel")
    heap, heap_events = sim_digest(config, requests=150, scheduler="heap")
    assert wheel == heap
    assert wheel_events == heap_events


def test_wheel_matches_heap_across_far_horizon():
    """Events past the near boundary take the far-bucket path; a long
    quiet workload forces refills and must still match the heap."""
    config = small_config()
    workload = fast_workload(mean_gap_ns=40.0, burst_size=1.0)
    wheel, _ = sim_digest(config, workload, 120, scheduler="wheel")
    heap, _ = sim_digest(config, workload, 120, scheduler="heap")
    assert wheel == heap


def test_default_engine_is_wheel(monkeypatch):
    # The *documented* default, independent of any ambient override.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    system = MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
    assert system.engine.scheduler == "wheel"


# ---------------------------------------------------------------------------
# Property tests: adversarial schedules at the near/far boundary
# ---------------------------------------------------------------------------
WHEEL_PERIOD = 1 << WHEEL_SHIFT

# Delays drawn either uniformly across a few wheel periods, or pinned to
# within a couple of picoseconds of a bucket boundary ``k * 2**12`` —
# exactly where a near/far filing mistake would change pop order.
_delays = st.one_of(
    st.integers(min_value=0, max_value=3 * WHEEL_PERIOD),
    st.builds(
        lambda k, off: max(0, k * WHEEL_PERIOD + off),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-2, max_value=2),
    ),
)


def _fire_log(scheduler, initial, chained):
    """Run one schedule on ``scheduler`` and log ``(now, tag)`` pops.

    ``chained`` maps fired events to follow-up delays, so callbacks
    schedule new events mid-run — including into already-promoted near
    windows and not-yet-filed far buckets.
    """
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


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(_delays, min_size=1, max_size=24),
    chained=st.lists(
        st.tuples(st.integers(min_value=0, max_value=23), _delays),
        max_size=24,
    ),
)
def test_wheel_pops_identically_to_heap(initial, chained):
    assert _fire_log("wheel", initial, chained) == _fire_log(
        "heap", initial, chained
    )


NUM_LINKS = 4


def _link_traffic(scheduler, sends, latency):
    """Model per-link FIFO wires on one engine; return (sent, arrived).

    Each generated "send" event forwards its message after a fixed
    per-link latency via a re-entrant schedule, so same-timestamp sends
    on one link all arrive ``latency`` later.  A FIFO wire requires
    per-link arrival order == send order; same-time events dispatched
    out of ``(time, seq)`` order would reorder it.
    """
    engine = Engine(scheduler)
    sent = {link: [] for link in range(NUM_LINKS)}
    arrived = {link: [] for link in range(NUM_LINKS)}

    def deliver(eng, link, msg):
        arrived[link].append((eng.now, msg))

    def send(eng, link, msg):
        sent[link].append(msg)
        eng.schedule(latency, deliver, link, msg)

    for msg, (link, delay) in enumerate(sends):
        engine.schedule(delay, send, link, msg)
    engine.run()
    assert engine.pending == 0
    return sent, arrived


@settings(max_examples=60, deadline=None)
@given(
    sends=st.lists(
        st.tuples(st.integers(min_value=0, max_value=NUM_LINKS - 1), _delays),
        min_size=1,
        max_size=32,
    ),
    latency=st.integers(min_value=0, max_value=2 * WHEEL_PERIOD),
)
def test_fast_schedulers_preserve_per_link_fifo(sends, latency):
    """Same-timestamp dispatch must not reorder any link's FIFO."""
    reference = _link_traffic("heap", sends, latency)
    for scheduler in ("wheel",) + (("native",) if native.available() else ()):
        sent, arrived = _link_traffic(scheduler, sends, latency)
        for link in range(NUM_LINKS):
            assert [msg for _t, msg in arrived[link]] == sent[link]
        assert (sent, arrived) == reference
