"""Batch execution of simulation jobs with optional process parallelism.

:class:`ParallelRunner` has two entry points: ``run`` returns results in
input order and ``run_fold`` streams them into a fold (fleet-scale
batches, :mod:`repro.fleet`).  Both go through one dispatch that, once
per batch:

1. digests each job once and deduplicates identical jobs,
2. satisfies what it can from its :class:`ResultCache`,
3. executes the remainder through :func:`execute_chunk` — serially when
   ``jobs <= 1`` (deterministic, spawn-safe, no pool overhead) or over a
   :class:`concurrent.futures.ProcessPoolExecutor` otherwise — and
   settles both paths through the same completion code,
4. stamps failures with the batch's checkpoint count and applies the
   ``on_error`` contract.

Per-job seeds derive from the config's root seed (see
:func:`repro.sim.derive_seed`), so serial and parallel execution produce
bit-identical results; the determinism tests assert this via
:func:`repro.serialization.result_digest`.

Robustness:

* every completed job is written to the cache *immediately*, so a sweep
  killed half-way resumes from the cached partials — only uncached jobs
  re-run;
* a crashed worker (``BrokenProcessPool``) respawns the pool and retries
  the in-flight jobs once (with backoff) instead of aborting the batch;
* ``job_timeout_s`` arms a watchdog: a job that exceeds it has its pool
  torn down (hung workers are terminated), innocent in-flight jobs are
  requeued, and the overdue job becomes a structured failure;
* ``on_error="collect"`` converts failures into :class:`JobFailure` rows
  aligned with the input order rather than losing the rest of the
  batch; the default ``on_error="raise"`` still raises, as a
  :class:`repro.errors.RunnerError` carrying the failing job's digest
  and config summary.

A module-level *ambient* runner lets high-level entry points
(:func:`repro.system.simulate`, :class:`repro.sweep.Sweep`,
:class:`repro.analysis.speedup.SpeedupGrid`) share one cache and one
worker count without threading a runner argument everywhere.  The
experiments CLI configures it from ``--jobs`` / ``--cache-dir`` /
``--no-cache``; ``REPRO_JOBS`` is the environment override.
"""

from __future__ import annotations

import contextlib
import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import RunnerError
from repro.results import SimResult
from repro.runner.cache import ResultCache
from repro.runner.job import SimJob

#: Environment override for the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Extra attempts granted to jobs whose worker pool broke under them.
POOL_RETRIES = 1

#: Backoff before respawning a broken pool (seconds, scaled by attempt).
POOL_RESPAWN_BACKOFF_S = 0.25

#: Chunk-size ceiling for streaming folds: :meth:`ParallelRunner.run_fold`
#: holds at most one in-flight chunk of results per worker, so capping
#: the chunk keeps peak resident memory independent of batch size.
FOLD_CHUNK_CAP = 16

#: Placeholder recorded for a result that was folded and released
#: instead of retained (streaming mode).
_FOLDED = object()

_warned_bad_jobs_env = False


def _warn_jobs_env_once(env: str, problem: str) -> None:
    global _warned_bad_jobs_env
    if not _warned_bad_jobs_env:
        _warned_bad_jobs_env = True
        warnings.warn(
            f"ignoring {problem} {JOBS_ENV}={env!r} "
            "(expected a positive integer); running serially",
            RuntimeWarning,
            stacklevel=3,
        )


def default_jobs() -> int:
    """Worker count when none is given: ``$REPRO_JOBS``, else 1 (serial)."""
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            jobs = int(env)
        except ValueError:
            _warn_jobs_env_once(env, "unparseable")
        else:
            if jobs >= 1:
                return jobs
            # REPRO_JOBS=0 or negative used to clamp to serial silently;
            # diagnose it the same way an unparseable value is.
            _warn_jobs_env_once(env, "non-positive")
    return 1


def execute_job(job: SimJob) -> SimResult:
    """Run one job to completion (top-level so it pickles to workers)."""
    from repro.system import MemoryNetworkSystem

    return MemoryNetworkSystem(
        job.config, job.workload, requests=job.requests
    ).run()


def _worker_init() -> None:
    """Pool initializer: pay the heavy imports once per worker process
    instead of on the first job each worker receives."""
    import repro.system  # noqa: F401


def execute_chunk(jobs: Sequence[SimJob]) -> List[tuple]:
    """Run a slice of a batch in one worker round-trip.

    One submit/result cycle per *chunk* instead of per job amortizes the
    future bookkeeping and pickling that dominated small parallel sweeps.
    Failures are captured per job — ``('ok', result)`` or
    ``('error', "Type: message")`` — so one bad job cannot take down its
    chunk-mates.
    """
    out: List[tuple] = []
    for job in jobs:
        try:
            out.append(("ok", execute_job(job)))
        except Exception as exc:  # noqa: BLE001 - reported per job
            out.append(("error", f"{type(exc).__name__}: {exc}"))
    return out


@dataclass
class JobFailure:
    """Structured record of a job that could not produce a result.

    ``kind`` is ``"exception"`` (the simulation raised), ``"timeout"``
    (exceeded ``job_timeout_s``), or ``"pool"`` (its worker pool broke
    repeatedly).  Returned in place of a :class:`SimResult` by
    ``run(..., on_error="collect")``.
    """

    digest: str
    label: str
    error: str
    kind: str = "exception"
    attempts: int = 1
    #: Jobs of the same batch that completed and were checkpointed to
    #: the cache — what a rerun of the identical batch will *not* repeat.
    checkpointed: int = 0

    def to_error(self) -> RunnerError:
        return RunnerError(
            f"job {self.label} (digest {self.digest[:12]}) failed "
            f"[{self.kind}, {self.attempts} attempt(s)]: {self.error}; "
            f"{self.checkpointed} job(s) from the batch are checkpointed "
            "(a rerun resumes from the cache)"
        )


def _spawn_pool(workers: int) -> ProcessPoolExecutor:
    """The one place a worker pool is created (first start and respawns)."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool, reclaiming hung workers.

    ``shutdown(wait=False)`` alone would leave a stuck worker joined at
    interpreter exit; terminating the processes is the only way to take
    back a job that will never finish.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    try:  # private, but there is no public kill switch
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:  # pragma: no cover - best-effort cleanup
        pass


#: Per-batch outcome table: digest -> result, failure, the folded
#: placeholder, or ``None`` while the job is still pending.
Results = Dict[str, object]

#: A pending job travels with the digest computed for it at dispatch.
Entry = Tuple[str, SimJob]


class ParallelRunner:
    """Cache-aware, deduplicating batch executor for simulation jobs."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        job_timeout_s: Optional[float] = None,
    ) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        # A fresh memory-only cache when none is shared in; callers that
        # want cross-runner reuse pass the ambient runner's cache.
        self.cache = ResultCache() if cache is None else cache
        # Watchdog ceiling per job; only enforceable with worker
        # processes (the serial path cannot preempt itself).
        self.job_timeout_s = job_timeout_s
        self.simulations_run = 0

    # ------------------------------------------------------------------
    def run(
        self,
        batch: Sequence[SimJob],
        on_error: str = "raise",
    ) -> List[Union[SimResult, JobFailure]]:
        """Execute a batch; returns results aligned with the input order.

        Completed jobs hit the cache the moment they finish — an
        interrupted batch leaves its partial results behind as a
        checkpoint.  With ``on_error="collect"`` failed jobs yield
        :class:`JobFailure` rows; with the default ``"raise"`` the whole
        batch still executes (checkpointing the successes), then the
        first failure in input order is raised as a
        :class:`~repro.errors.RunnerError`.
        """
        return self._dispatch(batch, on_error)

    def run_fold(
        self,
        batch: Sequence[SimJob],
        fold,
        on_error: str = "raise",
    ) -> List[Optional[JobFailure]]:
        """Execute a batch, streaming each result into ``fold`` instead
        of returning it.

        ``fold(index, job, result)`` is invoked once per *input
        position* (duplicate digests fold the shared result once per
        occurrence) in completion order, which is not deterministic
        under parallel execution — folds must therefore be commutative
        (see :meth:`repro.sim.stats.Histogram.merge`).  After a digest's
        positions are folded, its entry is evicted from the cache's
        memory layer (kept on disk when a disk layer is configured), so
        peak resident memory is bounded by the in-flight worker chunks,
        not by the batch size.  With a memory-only cache the entries are
        retained — evicting them would silently forfeit warm replay.

        Caching, dedup, checkpointing, the watchdog, and the
        ``on_error`` contract are :meth:`run`'s; the return value is
        aligned with the input, ``None`` for folded jobs and
        :class:`JobFailure` rows under ``on_error="collect"``.
        """
        return self._dispatch(batch, on_error, fold)

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        batch: Sequence[SimJob],
        on_error: str,
        fold=None,
    ) -> list:
        """Both entry points' one path: digest each job once, dedupe,
        serve cache hits, execute the rest, stamp checkpoints, and apply
        the ``on_error`` contract.  With a ``fold``, successes stream
        into it and the returned row of each is ``None``.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect', not {on_error!r}")
        digests = [job.digest() for job in batch]
        sink = None
        if fold is not None:
            positions: Dict[str, List[int]] = {}
            for index, digest in enumerate(digests):
                positions.setdefault(digest, []).append(index)

            def sink(digest: str, result: SimResult) -> None:
                for index in positions[digest]:
                    fold(index, batch[index], result)
                if self.cache.persistent:
                    self.cache.drop_memory(digest)

        results: Results = {}
        pending: List[Entry] = []
        for job, digest in zip(batch, digests):
            if digest in results:
                continue  # duplicate within the batch
            cached = self.cache.get(digest)
            if cached is not None:
                self._deliver(results, digest, cached, sink)
            else:
                results[digest] = None  # reserve slot, keep first occurrence
                pending.append((digest, job))
        self._execute(pending, results, sink)
        # Stamp every failure with the batch's checkpoint count so the
        # error (or collected row) says how much a rerun will skip.
        failures = [v for v in results.values() if isinstance(v, JobFailure)]
        for failure in failures:
            failure.checkpointed = len(results) - len(failures)
        out: list = []
        for digest in digests:
            value = results[digest]
            if isinstance(value, JobFailure):
                if on_error == "raise":
                    raise value.to_error()
            elif value is _FOLDED:
                value = None
            out.append(value)
        return out

    @staticmethod
    def _deliver(results: Results, digest: str, result: SimResult, sink) -> None:
        """Settle a success.  With a ``sink`` (streaming fold) the
        result is handed off and only a placeholder is retained, so the
        batch's results never accumulate in this process."""
        if sink is None:
            results[digest] = result
        else:
            results[digest] = _FOLDED
            sink(digest, result)

    @staticmethod
    def _fail(
        results: Results,
        entry: Entry,
        error: str,
        kind: str,
        attempts: int,
    ) -> None:
        digest, job = entry
        results[digest] = JobFailure(
            digest=digest,
            label=job.label(),
            error=error,
            kind=kind,
            attempts=attempts,
        )

    def _complete(
        self,
        results: Results,
        chunk: List[Entry],
        statuses: List[tuple],
        attempts: Dict[str, int],
        sink,
    ) -> None:
        """Record :func:`execute_chunk`'s per-job statuses, checkpointing
        each success to the cache immediately."""
        for entry, (status, payload) in zip(chunk, statuses):
            digest = entry[0]
            if status == "ok":
                self.cache.put(digest, payload)
                self.simulations_run += 1
                self._deliver(results, digest, payload, sink)
            else:
                self._fail(results, entry, payload, "exception", attempts[digest])

    def _execute(self, pending: List[Entry], results: Results, sink) -> None:
        attempts: Dict[str, int] = {digest: 0 for digest, _ in pending}
        workers = min(self.jobs, len(pending))
        if workers > 1:
            self._execute_parallel(pending, results, attempts, workers, sink)
            return
        for entry in pending:
            attempts[entry[0]] += 1
            self._complete(results, [entry], execute_chunk([entry[1]]), attempts, sink)

    def _chunk_size(
        self, pending_count: int, workers: int, streaming: bool = False
    ) -> int:
        """Jobs per worker round-trip.

        Four chunks per worker balances pickling amortization against
        tail imbalance (a worker stuck with the one slow chunk).  The
        watchdog needs per-job starts, so an armed ``job_timeout_s``
        forces single-job chunks.  Streaming folds additionally cap the
        chunk at :data:`FOLD_CHUNK_CAP` so the per-chunk result list —
        the only place a fold holds multiple results at once — stays
        bounded regardless of batch size.
        """
        if self.job_timeout_s is not None:
            return 1
        size = max(1, -(-pending_count // (workers * 4)))
        if streaming:
            size = min(size, FOLD_CHUNK_CAP)
        return size

    def _requeue_broken(
        self,
        chunk: List[Entry],
        queue: deque,
        attempts: Dict[str, int],
        results: Results,
    ) -> None:
        """Retry policy for a chunk whose pool broke underneath it.

        Any member may have been the killer, so each is retried alone —
        a poison job then fails only itself on the second break.
        """
        for entry in chunk:
            if attempts[entry[0]] <= POOL_RETRIES:
                queue.append([entry])
            else:
                self._fail(
                    results, entry,
                    "worker pool broke (worker died mid-job)",
                    "pool", attempts[entry[0]],
                )

    def _execute_parallel(
        self,
        pending: List[Entry],
        results: Results,
        attempts: Dict[str, int],
        workers: int,
        sink,
    ) -> None:
        size = self._chunk_size(len(pending), workers, streaming=sink is not None)
        queue: deque = deque(
            pending[i:i + size] for i in range(0, len(pending), size)
        )
        pool = _spawn_pool(workers)
        running: Dict[object, tuple] = {}  # future -> (chunk, start_monotonic)
        try:
            while queue or running:
                while queue and len(running) < workers:
                    chunk = queue.popleft()
                    for digest, _job in chunk:
                        attempts[digest] += 1
                    future = pool.submit(execute_chunk, [job for _, job in chunk])
                    running[future] = (chunk, time.monotonic())
                timeout = None
                if self.job_timeout_s is not None:
                    deadline = min(
                        start + self.job_timeout_s for _, start in running.values()
                    )
                    timeout = max(deadline - time.monotonic(), 0.0)
                done, _ = wait(
                    set(running), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    pool = self._reap_overdue(pool, workers, running, queue,
                                              attempts, results)
                    continue
                broken = False
                for future in done:
                    chunk, _start = running.pop(future)
                    try:
                        statuses = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._requeue_broken(chunk, queue, attempts, results)
                        continue
                    except Exception as exc:  # noqa: BLE001 - chunk transport
                        # execute_chunk catches per-job errors, so this is
                        # the round-trip itself (e.g. unpicklable result).
                        error = f"{type(exc).__name__}: {exc}"
                        statuses = [("error", error)] * len(chunk)
                    self._complete(results, chunk, statuses, attempts, sink)
                if broken:
                    # Every in-flight future is doomed with the pool;
                    # drain them under the same retry policy, then respawn.
                    for chunk, _start in running.values():
                        self._requeue_broken(chunk, queue, attempts, results)
                    running.clear()
                    _kill_pool(pool)
                    time.sleep(POOL_RESPAWN_BACKOFF_S)
                    pool = _spawn_pool(workers)
        finally:
            _kill_pool(pool)

    def _reap_overdue(
        self,
        pool: ProcessPoolExecutor,
        workers: int,
        running: Dict[object, tuple],
        queue: deque,
        attempts: Dict[str, int],
        results: Results,
    ) -> ProcessPoolExecutor:
        """The watchdog fired: fail overdue jobs, requeue the innocent.

        A hung worker cannot be preempted, so the whole pool is torn
        down (terminating its processes) and respawned.  Jobs that were
        merely sharing the pool do not lose an attempt.  An armed
        watchdog forces single-job chunks (:meth:`_chunk_size`), so each
        in-flight chunk is exactly one job here.
        """
        now = time.monotonic()
        for future, (chunk, start) in list(running.items()):
            if future.done():
                continue  # completed while we were deciding; next wait() reaps it
            if now - start >= self.job_timeout_s:
                # Deterministic simulations do not hang transiently:
                # retrying would hang again, so time-outs fail outright.
                for entry in chunk:
                    self._fail(
                        results, entry,
                        f"exceeded job timeout of {self.job_timeout_s:g}s",
                        "timeout", attempts[entry[0]],
                    )
            else:
                for digest, _job in chunk:
                    attempts[digest] -= 1  # innocent victim of teardown
                queue.append(chunk)
            del running[future]
        _kill_pool(pool)
        return _spawn_pool(workers)


# ---------------------------------------------------------------------------
# Ambient runner
# ---------------------------------------------------------------------------
_ambient: Optional[ParallelRunner] = None


def get_runner() -> ParallelRunner:
    """The process-wide runner, created lazily (serial, memory cache)."""
    global _ambient
    if _ambient is None:
        _ambient = ParallelRunner()
    return _ambient


def configure_runner(
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    persistent: bool = False,
    job_timeout_s: Optional[float] = None,
) -> ParallelRunner:
    """Replace the ambient runner (used by CLIs and benchmarks).

    ``persistent=True`` turns on the disk layer at ``cache_dir`` (or the
    default location, see :func:`repro.runner.cache.default_cache_dir`).
    The in-memory layer is always active.
    """
    from repro.runner.cache import default_cache_dir

    global _ambient
    directory = None
    if persistent:
        directory = cache_dir if cache_dir is not None else default_cache_dir()
    _ambient = ParallelRunner(
        jobs=jobs, cache=ResultCache(directory), job_timeout_s=job_timeout_s
    )
    return _ambient


def reset_runner() -> None:
    """Drop the ambient runner (next :func:`get_runner` recreates it)."""
    global _ambient
    _ambient = None


@contextlib.contextmanager
def using_runner(runner: ParallelRunner) -> Iterator[ParallelRunner]:
    """Temporarily swap the ambient runner (tests, nested harnesses)."""
    global _ambient
    previous = _ambient
    _ambient = runner
    try:
        yield runner
    finally:
        _ambient = previous
