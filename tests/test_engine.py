"""Tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_initial_state():
    engine = Engine()
    assert engine.now == 0
    assert engine.pending == 0
    assert engine.events_processed == 0


def test_single_event_fires_at_time():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda eng: fired.append(eng.now))
    engine.run()
    assert fired == [5]
    assert engine.now == 5


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, lambda eng: order.append("c"))
    engine.schedule(10, lambda eng: order.append("a"))
    engine.schedule(20, lambda eng: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in "abcde":
        engine.schedule(7, lambda eng, t=tag: order.append(t))
    engine.run()
    assert order == list("abcde")


def test_zero_delay_allowed():
    engine = Engine()
    fired = []
    engine.schedule(0, lambda eng: fired.append(eng.now))
    engine.run()
    assert fired == [0]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda eng: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda eng: eng.schedule_at(5, lambda e: None))
    with pytest.raises(SimulationError):
        engine.run()


def test_events_scheduled_during_run_are_processed():
    engine = Engine()
    fired = []

    def first(eng):
        fired.append(("first", eng.now))
        eng.schedule(3, second)

    def second(eng):
        fired.append(("second", eng.now))

    engine.schedule(2, first)
    engine.run()
    assert fired == [("first", 2), ("second", 5)]


def test_run_until_leaves_future_events_queued():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda eng: fired.append(5))
    engine.schedule(50, lambda eng: fired.append(50))
    engine.run(until=10)
    assert fired == [5]
    assert engine.pending == 1
    assert engine.now == 10
    engine.run()
    assert fired == [5, 50]


def test_run_until_advances_clock_when_queue_empty():
    engine = Engine()
    engine.run(until=123)
    assert engine.now == 123


def test_max_events_raises_on_livelock():
    engine = Engine()

    def rescheduling(eng):
        eng.schedule(1, rescheduling)

    engine.schedule(0, rescheduling)
    with pytest.raises(SimulationError, match="event limit"):
        engine.run(max_events=100)


def test_drain_clears_queue():
    engine = Engine()
    engine.schedule(5, lambda eng: None)
    engine.schedule(6, lambda eng: None)
    engine.drain()
    assert engine.pending == 0
    engine.run()
    assert engine.now == 0


def test_callback_args_passed_through():
    engine = Engine()
    seen = []
    engine.schedule(1, lambda eng, a, b: seen.append((a, b)), "x", 42)
    engine.run()
    assert seen == [("x", 42)]


def test_events_processed_accumulates_across_runs():
    engine = Engine()
    engine.schedule(1, lambda eng: None)
    engine.run()
    engine.schedule(1, lambda eng: None)
    engine.run()
    assert engine.events_processed == 2


def test_run_returns_processed_count():
    engine = Engine()
    for t in range(4):
        engine.schedule(t, lambda eng: None)
    assert engine.run() == 4


def _fire_and_stop_at(fired, count):
    """A callback that records ``now`` and stops the run on event ``count``."""

    def callback(eng):
        fired.append(eng.now)
        if len(fired) == count:
            eng.request_stop()

    return callback


def test_request_stop_combined_with_until():
    # A stop must win even when a time bound is also active.
    engine = Engine()
    fired = []
    for t in range(10):
        engine.schedule(t, _fire_and_stop_at(fired, 2))
    engine.run(until=100)
    assert fired == [0, 1]
    assert engine.pending == 8
    # the clock stays at the stopping event, not the until bound
    assert engine.now == 1


def test_until_combined_with_request_stop_that_never_fires():
    engine = Engine()
    fired = []
    engine.schedule(5, _fire_and_stop_at(fired, 3))
    engine.schedule(50, _fire_and_stop_at(fired, 3))
    engine.run(until=10)
    assert fired == [5]
    assert engine.now == 10
    assert engine.pending == 1


def test_max_events_counts_events_before_raise():
    # The events that ran before the limit tripped must still be
    # reflected in events_processed (no double count, no loss).
    engine = Engine()

    def rescheduling(eng):
        eng.schedule(1, rescheduling)

    engine.schedule(0, rescheduling)
    with pytest.raises(SimulationError, match="event limit"):
        engine.run(max_events=7)
    assert engine.events_processed == 7


def test_max_events_accumulates_across_successful_runs():
    engine = Engine()
    for t in range(3):
        engine.schedule(t, lambda eng: None)
    engine.run(max_events=100)
    assert engine.events_processed == 3
    for t in range(2):
        engine.schedule(engine.now + 1 + t, lambda eng: None)
    engine.run(max_events=100)
    assert engine.events_processed == 5


def test_run_until_in_past_does_not_rewind_clock():
    engine = Engine()
    engine.schedule(20, lambda eng: None)
    engine.run()
    assert engine.now == 20
    engine.run(until=5)
    assert engine.now == 20


def test_run_until_empty_queue_repeated():
    engine = Engine()
    engine.run(until=10)
    engine.run(until=30)
    assert engine.now == 30
    assert engine.events_processed == 0
