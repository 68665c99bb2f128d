"""Event scheduler with an integer picosecond clock.

Three schedulers live behind one API:

* ``wheel`` (the default) — a deterministic two-tier structure.  The
  *near* tier is a binary heap covering ``[now, boundary)``; everything
  at or beyond the boundary lands in hashed timing-wheel buckets of
  ``2**WHEEL_SHIFT`` ps in O(1), with a heapq of bucket indices as the
  far-future overflow tier.  When the near tier drains, consecutive
  buckets are promoted and heapified wholesale until the near tier
  holds :data:`NEAR_TARGET` events — the near horizon auto-sizes to the
  observed event density.  A wheel whose buckets stay sparse is pure
  overhead, so after :data:`COLLAPSE_REFILLS` refills with mean
  occupancy below :data:`COLLAPSE_DENSITY` events the wheel *collapses*
  into the single-heap mode for the rest of the run (dispatch order is
  unaffected — both structures pop in exact ``(time, seq)`` order).
* ``heap`` — the classic single heapq over all events, kept as the
  determinism reference.  It is the wheel with an infinite near
  boundary, so both modes share every code path and dispatch events in
  exactly the same ``(time, seq)`` order.
* ``native`` — the compiled C scheduler (:mod:`repro.sim.native`), an
  optional in-tree extension built with ``python -m
  repro.sim.native_build``.  ``Engine("native")`` raises a clear error
  when it is not built; ``REPRO_ENGINE=native`` falls back to ``wheel``
  with one warning.

Events are ``(time, sequence, callback, args)`` tuples ordered by time
and, for equal times, by scheduling order — bit-identical results
regardless of scheduler mode.  The scheduler choice is therefore *not*
part of any job digest (see :mod:`repro.runner.job`); it may be picked
ambiently via the ``REPRO_ENGINE`` environment variable, which also
reaches runner worker processes.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Width of one timing-wheel bucket in picoseconds (2**12 = 4096 ps).
#: Link serialization plus SerDes latency is ~4-6 ns in every paper
#: configuration, so the bulk of scheduled events cross the bucket
#: boundary and take the O(1) far-tier insert.
WHEEL_SHIFT = 12

#: Refill auto-sizing: promote consecutive far buckets until the near
#: heap holds at least this many events, so sparse schedules do not pay
#: one refill per handful of events.
NEAR_TARGET = 64

#: After this many refills the wheel reviews its own usefulness ...
COLLAPSE_REFILLS = 8
#: ... and folds into a plain heap when the mean number of events
#: promoted per refill is below this density.  A sparse wheel pays
#: bucket bookkeeping per event and saves nothing over heappush.
COLLAPSE_DENSITY = 24

#: Valid scheduler names, in documentation order.
SCHEDULERS = ("wheel", "heap", "native")

#: Environment variable selecting the ambient default scheduler (used
#: when an Engine is built without an explicit choice — including the
#: engines built inside runner worker processes).
ENGINE_ENV = "REPRO_ENGINE"

_NO_ARGS: tuple = ()


def backend_status() -> str:
    """One line naming the valid backends and whether the optional ones
    are usable here — appended to every unknown-backend error."""
    from repro.sim import native

    built = "extension built" if native.available() else "extension not built"
    return f"valid backends: 'wheel', 'heap', 'native' ({built})"


def default_scheduler() -> str:
    """The ambient scheduler: ``$REPRO_ENGINE``, else ``wheel``."""
    env = os.environ.get(ENGINE_ENV)
    if not env:
        return "wheel"
    if env not in SCHEDULERS:
        raise SimulationError(
            f"unknown {ENGINE_ENV}={env!r}; " + backend_status()
        )
    return env


_ambient_native_warned = False


def _ambient_native_fallback() -> None:
    """Warn once when ``REPRO_ENGINE=native`` is set but the compiled
    extension is not built; the run proceeds on ``wheel``.  An env var
    set fleet-wide must not break machines without a compiler — only an
    *explicit* ``Engine("native")`` raises."""
    global _ambient_native_warned
    if _ambient_native_warned:
        return
    _ambient_native_warned = True
    import warnings

    from repro.sim.native import BUILD_HINT

    warnings.warn(
        f"{ENGINE_ENV}=native but the compiled engine is not built; "
        "falling back to the 'wheel' scheduler — " + BUILD_HINT,
        RuntimeWarning,
        stacklevel=3,
    )


class Engine:
    """A deterministic discrete-event scheduler.

    Example
    -------
    >>> engine = Engine()
    >>> fired = []
    >>> engine.schedule(5, lambda eng: fired.append(eng.now))
    >>> engine.run()
    >>> fired
    [5]
    """

    __slots__ = (
        "_near",
        "_near_bound",
        "_far",
        "_bucket_heap",
        "now",
        "_seq",
        "_pending",
        "_events_processed",
        "_running",
        "_tracer",
        "_refills",
        "_promoted",
        "_collapsed",
        "_stop",
        "scheduler",
    )

    def __new__(cls, scheduler: Optional[str] = None):
        # ``Engine("native")`` builds the compiled C scheduler (the
        # pure-Python install path never imports it).  The native type
        # is not an Engine subclass, so returning it skips ``__init__``
        # entirely — exactly the duck-typed hand-off the runner and
        # system expect.
        choice = scheduler if scheduler is not None else default_scheduler()
        if choice == "native":
            from repro.sim import native

            if scheduler is None and not native.available():
                # Ambient selection falls back to wheel (with one
                # warning); __init__ resolves the same default and
                # applies the same fallback below.
                _ambient_native_fallback()
                return object.__new__(cls)
            return native.load().NativeEngine()
        return object.__new__(cls)

    def __init__(self, scheduler: Optional[str] = None) -> None:
        if scheduler is None:
            scheduler = default_scheduler()
            if scheduler == "native":
                # Only reachable on the ambient fallback path: __new__
                # already warned that the extension is not built.
                scheduler = "wheel"
        if scheduler not in ("wheel", "heap"):
            # Unknown names land here (native requests were dispatched
            # by __new__ before __init__ ran).
            raise SimulationError(
                f"unknown scheduler backend {scheduler!r}; " + backend_status()
            )
        self.scheduler = scheduler
        self._near: list = []
        # ``heap`` mode is the wheel with an unreachable boundary: every
        # event stays in the near heap and the far tier is never used.
        self._near_bound: float = 0 if scheduler == "wheel" else float("inf")
        self._far: dict = {}
        self._bucket_heap: list = []
        self.now: int = 0
        self._seq: int = 0
        self._pending: int = 0
        self._events_processed: int = 0
        self._running = False
        self._tracer = None
        # Wheel self-tuning state (never touched in heap mode).
        self._refills = 0
        self._promoted = 0
        self._collapsed = scheduler != "wheel"
        # request_stop() latch: consumed (cleared) by the run loop when
        # it honors the request, NOT cleared at run() entry — a stop
        # requested before run() begins (the zero-request edge) must
        # stop the run after its first event.
        self._stop = False

    def request_stop(self) -> None:
        """Stop the active :meth:`run` once the event now dispatching
        completes.

        Callers flip it from *inside* an event callback (the system
        does, when the last transaction completes); the loop honors it
        right after that event, so the clock stays at the stopping
        event even under an ``until`` bound, and the check costs one
        flag test per event rather than a Python-level call.
        """
        self._stop = True

    def set_tracer(self, tracer) -> None:
        """Record every event dispatch into ``tracer`` (repro.obs).

        Tracing swaps :meth:`run` onto a separate dispatch loop; with no
        tracer attached the hot loops are untouched (one ``None`` check
        per *run call*, not per event — the zero-overhead guard).
        """
        self._tracer = tracer

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the queue."""
        return self._pending

    @property
    def collapsed(self) -> bool:
        """True once a sparse wheel folded itself into a plain heap."""
        return self._collapsed and self.scheduler == "wheel"

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(engine, *args)`` after ``delay`` ps."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} scheduled at t={self.now}")
        self._push(self.now + delay, callback, args)

    def schedule_at(self, time: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(engine, *args)`` at absolute ``time`` ps."""
        if time < self.now:
            raise SimulationError(
                f"event scheduled in the past: t={time} < now={self.now}"
            )
        self._push(time, callback, args)

    def schedule_bound(
        self, delay: int, callback: Callable, args: tuple = _NO_ARGS
    ) -> None:
        """Fast-path schedule for pre-validated callers.

        Skips the negative-delay branch and takes ``args`` as an already
        built tuple, letting hot components pool and reuse argument
        tuples instead of having them re-packed per call.  Callers must
        guarantee ``delay >= 0``.
        """
        self._push(self.now + delay, callback, args)

    def _push(self, time: int, callback: Callable, args: tuple) -> None:
        if time < self._near_bound:
            heappush(self._near, (time, self._seq, callback, args))
        else:
            index = time >> WHEEL_SHIFT
            bucket = self._far.get(index)
            if bucket is None:
                self._far[index] = [(time, self._seq, callback, args)]
                heappush(self._bucket_heap, index)
            else:
                bucket.append((time, self._seq, callback, args))
        self._seq += 1
        self._pending += 1

    def _refill(self) -> bool:
        """Promote far buckets into the near heap (auto-sized).

        Consecutive earliest buckets are promoted until the near tier
        holds :data:`NEAR_TARGET` events, then heapified once.  Returns
        False when no events remain anywhere.
        """
        bucket_heap = self._bucket_heap
        if not bucket_heap:
            return False
        index = heappop(bucket_heap)
        events = self._far.pop(index)
        while len(events) < NEAR_TARGET and bucket_heap:
            # Only contiguous buckets may join: a gap could otherwise
            # admit a not-yet-scheduled event below the new boundary.
            if bucket_heap[0] != index + 1:
                break
            index = heappop(bucket_heap)
            events.extend(self._far.pop(index))
        self._near_bound = (index + 1) << WHEEL_SHIFT
        self._refills += 1
        self._promoted += len(events)
        if (
            self._refills >= COLLAPSE_REFILLS
            and not self._collapsed
            and self._promoted < COLLAPSE_DENSITY * self._refills
        ):
            # The wheel is not earning its bookkeeping: fold every
            # remaining bucket into one heap and stop filing by bucket.
            # Dispatch order is unchanged — the heap pops the same
            # global (time, seq) order the buckets would have produced.
            self._collapsed = True
            for bucket in self._far.values():
                events.extend(bucket)
            self._far.clear()
            bucket_heap.clear()
            self._near_bound = float("inf")
        heapify(events)
        self._near = events
        return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue drains, ``until`` is reached, or a limit hits.

        Parameters
        ----------
        until:
            Absolute time bound (inclusive).  Events scheduled later stay
            queued and ``now`` advances to ``until``.
        max_events:
            Safety valve against runaway simulations.

        A :meth:`request_stop` from inside a callback ends the run after
        that event, whatever the bounds.  Returns the number of events
        processed during this call.
        """
        if self._tracer is not None:
            return self._run_traced(until, max_events)
        # This loop dominates every simulation's wall-clock time, so the
        # near heap and heappop are bound to locals.
        processed = 0
        pop = heappop
        bounded = until is not None
        limited = max_events is not None
        self._running = True
        try:
            # Callbacks can push but never swap the near list (only
            # _refill does, and only when it has drained), so the alias
            # stays valid across events.
            near = self._near
            while True:
                if not near:
                    if not self._refill():
                        if bounded and until > self.now:
                            self.now = until
                        return processed
                    near = self._near
                if bounded and near[0][0] > until:
                    self.now = until
                    return processed
                time, _seq, callback, args = pop(near)
                self.now = time
                callback(self, *args)
                processed += 1
                if limited and processed >= max_events:
                    self._pending -= processed
                    self._events_processed += processed
                    processed = 0  # flushed; avoid double-count in finally
                    raise SimulationError(
                        f"event limit {max_events} exceeded at t={self.now}; "
                        "likely livelock"
                    )
                if self._stop:
                    self._stop = False
                    return processed
        finally:
            self._pending -= processed
            self._events_processed += processed
            self._running = False

    def _peek_time(self) -> Optional[int]:
        """Earliest pending event time, promoting buckets as needed."""
        while not self._near:
            if not self._refill():
                return None
        return self._near[0][0]

    def _run_traced(
        self, until: Optional[int], max_events: Optional[int]
    ) -> int:
        """The :meth:`run` loop with per-event trace emission.

        Kept out of line so the untraced loops stay check-free; trace
        runs are diagnostic and not performance-sensitive.
        """
        tracer = self._tracer
        processed = 0
        pop = heappop
        bounded = until is not None
        limited = max_events is not None
        self._running = True
        try:
            while True:
                head_time = self._peek_time()
                if head_time is None:
                    if bounded and until > self.now:
                        self.now = until
                    return processed
                if bounded and head_time > until:
                    self.now = until
                    return processed
                time, _seq, callback, args = pop(self._near)
                self.now = time
                tracer.engine_event(
                    time, getattr(callback, "__qualname__", repr(callback))
                )
                callback(self, *args)
                processed += 1
                if limited and processed >= max_events:
                    self._pending -= processed
                    self._events_processed += processed
                    processed = 0  # flushed; avoid double-count in finally
                    raise SimulationError(
                        f"event limit {max_events} exceeded at t={self.now}; "
                        "likely livelock"
                    )
                if self._stop:
                    self._stop = False
                    return processed
        finally:
            self._pending -= processed
            self._events_processed += processed
            self._running = False

    # ------------------------------------------------------------------
    # integrity introspection (repro.check)
    # ------------------------------------------------------------------
    def integrity_errors(self) -> list:
        """Audit the scheduler's internal bookkeeping (repro.check).

        Walks both tiers and returns a list of problem strings (empty
        when consistent).  Checked invariants:

        * the ``pending`` counter equals the number of queued events
          (a mismatch means an event was lost or smuggled in),
        * the far-tier bucket heap and bucket dict describe the same
          set of buckets, with no duplicates (a stale wheel entry —
          a bucket the refill loop can never reach — shows up here),
        * every queued event sits in the correct tier and bucket for
          its timestamp, and none is scheduled in the past.

        Cold path only: nothing here runs unless an auditor asks.
        """
        problems = []
        queued = len(self._near) + sum(len(b) for b in self._far.values())
        if self._running:
            # Mid-dispatch the pending counter still includes events this
            # run() call already processed (it is settled in bulk when
            # the loop exits), so only the lower bound can be checked.
            if queued > self._pending:
                problems.append(
                    f"pending counter {self._pending} below {queued} "
                    "queued events mid-dispatch"
                )
        elif queued != self._pending:
            problems.append(
                f"pending counter {self._pending} != {queued} queued events"
            )
        heap_indices = sorted(self._bucket_heap)
        far_indices = sorted(self._far)
        if heap_indices != far_indices:
            problems.append(
                f"bucket heap {heap_indices} disagrees with far buckets "
                f"{far_indices} (stale or unreachable wheel entry)"
            )
        elif len(set(heap_indices)) != len(heap_indices):
            problems.append(f"duplicate bucket indices in heap: {heap_indices}")
        for time, _seq, _cb, _args in self._near:
            if time < self.now:
                problems.append(f"near event at t={time} is before now={self.now}")
                break
            if time >= self._near_bound:
                problems.append(
                    f"near event at t={time} belongs beyond the boundary "
                    f"{self._near_bound}"
                )
                break
        for index, bucket in self._far.items():
            for time, _seq, _cb, _args in bucket:
                if time >> WHEEL_SHIFT != index:
                    problems.append(
                        f"far event at t={time} filed in bucket {index} "
                        f"(expected {time >> WHEEL_SHIFT})"
                    )
                    break
                if time < self.now:
                    problems.append(
                        f"far event at t={time} is before now={self.now}"
                    )
                    break
        return problems

    def drain(self) -> None:
        """Discard all pending events (used to tear a system down)."""
        self._near.clear()
        self._far.clear()
        self._bucket_heap.clear()
        self._pending = 0
