"""Fault-tolerant parallel execution of :class:`~repro.runner.jobs.RunSpec` grids.

:class:`ParallelRunner` fans specs out over a ``ProcessPoolExecutor``
(``n_workers`` processes), with

- result ordering by *input position*, never completion order, so a
  parallel sweep assembles bit-identically to the serial one;
- an optional per-job wall-clock ``timeout`` — a hung worker is killed
  and the job retried;
- bounded retry (``retries`` extra attempts per job) of trials that
  raise, crash the worker process, or time out; an exhausted job
  becomes a failed :class:`~repro.runner.jobs.RunRecord` instead of
  aborting the sweep;
- a read-through :class:`~repro.runner.cache.ResultCache`, so re-running
  a sweep only executes missing trials;
- ``n_workers=1`` falls back to plain in-process serial execution (no
  subprocesses — fully debuggable, and the reference for equality).

Fault semantics worth knowing: when a worker process dies, the executor
marks *every* in-flight future broken, so each in-flight job is charged
one attempt and requeued behind untouched work — and, since the culprit
cannot be told from its pool-mates, each of them runs alone from then
on.  A persistently crashing job therefore drains only its own retry
budget: an innocent pool-mate is charged once, never again.  Per-job
timeouts likewise kill the whole pool (there is no way to kill a single
hung pool worker); jobs that were still within their deadline are
requeued without being charged an attempt.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs.logging import get_logger, log_enabled, new_cid
from .cache import ResultCache
from .jobs import RunRecord, RunSpec, execute_spec
from .progress import (
    JsonProgress,
    ProgressSink,
    SweepTiming,
    TeeProgress,
    resolve_progress,
)

__all__ = ["ParallelRunner", "default_workers", "kill_executor", "log_sink"]

RETRIES = 1  # extra attempts after a failed trial or a dead worker


def default_workers() -> int:
    """A sensible worker count for this machine (``os.cpu_count()``)."""
    return max(1, os.cpu_count() or 1)


def log_sink(cid: str) -> JsonProgress:
    """The structured log as a sink: each event's JSON payload is one
    ``runner`` line under the sweep ``cid``; a failed ``job_finished``
    is a warning."""
    logger = get_logger("runner", cid=cid)

    def emit(payload: Dict[str, Any]) -> None:
        fields = dict(payload)
        event = fields.pop("event")
        failed = not fields.get("record", {}).get("ok", True)
        logger.log(event, level="warning" if failed else "info", **fields)

    return JsonProgress(emit)


@dataclass
class _Job:
    """Mutable execution state of one spec inside a run."""

    index: int
    spec: RunSpec
    attempts: int = 0  # executions started so far
    #: was charged for a worker death (see ``_worker_died``): runs alone.
    suspect: bool = False


class ParallelRunner:
    """Execute a list of specs and return records in input order."""

    def __init__(
        self,
        n_workers: int = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = RETRIES,
        cache: Union[ResultCache, str, os.PathLike, None] = None,
        progress: Union[None, str, ProgressSink] = None,
        registry=None,
        cid: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0: {retries}")
        self.n_workers = n_workers
        self.timeout = timeout
        self.retries = retries
        #: sweep-level correlation id; per-job ids are ``<cid>/<index>``
        #: and flow into the workers' structured logs.  Minted lazily
        #: when structured logging is enabled and none was given.
        self.cid = cid or ""
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache: Optional[ResultCache] = cache
        self.progress = resolve_progress(progress)
        #: the telemetry recorder, when ``registry`` was given (a
        #: ``RunRegistry``, a path, or a prepared ``RegistrySink``).
        self.registry_sink = None
        if registry is not None:
            # Local import: repro.obs.registry imports this package.
            from ..obs.registry import RegistrySink, resolve_registry

            if isinstance(registry, RegistrySink):
                self.registry_sink = registry
            else:
                self.registry_sink = RegistrySink(resolve_registry(registry))
            # Recording rides the same event stream both execution paths
            # (and cache hits) already emit, so serial and parallel runs
            # record identically.
            self.progress = TeeProgress(self.progress, self.registry_sink)
        #: timing stats of the most recent :meth:`run`.
        self.last_timing: Optional[SweepTiming] = None
        #: the sink :meth:`run` announces to: ``progress``, plus the
        #: structured log when logging is enabled.
        self._events: ProgressSink = self.progress

    # ------------------------------------------------------------------
    def _job_cid(self, job: "_Job") -> str:
        return f"{self.cid}/{job.index}" if self.cid else ""

    def run(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Run every spec; the i-th record describes the i-th spec."""
        specs = list(specs)
        self._events = self.progress
        if log_enabled():
            self.cid = self.cid or new_cid()
            self._events = TeeProgress(self.progress, log_sink(self.cid))
        started = time.perf_counter()
        hits_before = self.cache.hits if self.cache is not None else 0
        misses_before = self.cache.misses if self.cache is not None else 0
        records: List[Optional[RunRecord]] = [None] * len(specs)

        pending: List[_Job] = []
        n_cached = 0
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                if spec.anatomy and cached.anatomy is None:
                    # ``anatomy`` is digest-neutral, so an anatomy-on
                    # spec can hit an entry written without it; anatomy
                    # is a pure function of the cached spans, so the
                    # record gains it losslessly here.
                    from ..obs.anatomy import ensure_record_anatomy

                    ensure_record_anatomy(cached)
                records[index] = cached
                n_cached += 1
            else:
                pending.append(_Job(index, spec))

        self._events.sweep_started(len(specs), n_cached, self.n_workers)
        for index, record in enumerate(records):
            if record is not None:
                self._events.job_finished(index, specs[index], record)

        if pending:
            if self.n_workers == 1:
                self._run_serial(pending, records)
            else:
                self._run_parallel(pending, records)

        done = [r for r in records if r is not None]
        assert len(done) == len(specs), "runner lost a job"
        executed = [r for r in done if not r.cached]
        timing = SweepTiming(
            elapsed=time.perf_counter() - started,
            jobs=len(specs),
            cached=n_cached,
            failed=sum(1 for r in done if not r.ok),
            total_job_wall=sum(r.wall_time for r in executed),
            max_job_wall=max((r.wall_time for r in executed), default=0.0),
            workers=self.n_workers,
            cache_hits=(
                self.cache.hits - hits_before if self.cache is not None else 0
            ),
            cache_misses=(
                self.cache.misses - misses_before
                if self.cache is not None else 0
            ),
        )
        self.last_timing = timing
        self._events.sweep_finished(timing)
        return done

    # ------------------------------------------------------------------
    # serial fallback
    # ------------------------------------------------------------------
    def _run_serial(
        self, jobs: Sequence[_Job], records: List[Optional[RunRecord]]
    ) -> None:
        """In-process execution — the bit-identical reference path.

        Per-job timeouts are not enforceable in-process and are ignored.
        """
        for job in jobs:
            while True:
                job.attempts += 1
                self._events.job_started(job.index, job.spec, job.attempts)
                record = execute_spec(job.spec, self._job_cid(job))
                record.worker = "serial"
                if record.ok or job.attempts > self.retries:
                    record.attempts = job.attempts
                    self._finalize(job, record, records)
                    break

    # ------------------------------------------------------------------
    # parallel engine
    # ------------------------------------------------------------------
    def _run_parallel(
        self, jobs: Sequence[_Job], records: List[Optional[RunRecord]]
    ) -> None:
        queue = deque(jobs)
        while queue:
            self._drain_one_pool(queue, records)

    def _drain_one_pool(self, queue, records) -> None:
        """Run jobs in one executor until the queue drains or the pool
        must be torn down (worker crash / job timeout)."""
        executor = ProcessPoolExecutor(max_workers=self.n_workers)
        inflight = {}  # future -> (_Job, deadline or None)
        broken = False
        try:
            while queue or inflight:
                while queue and len(inflight) < self.n_workers:
                    if inflight and (
                        queue[0].suspect
                        or any(job.suspect for job, _ in inflight.values())
                    ):
                        break  # a suspect shares the pool with nobody
                    job = queue.popleft()
                    job.attempts += 1
                    self._events.job_started(job.index, job.spec, job.attempts)
                    future = executor.submit(
                        execute_spec, job.spec, self._job_cid(job)
                    )
                    deadline = (
                        time.monotonic() + self.timeout
                        if self.timeout is not None else None
                    )
                    inflight[future] = (job, deadline)

                wait_for = None
                if self.timeout is not None:
                    nearest = min(dl for _, dl in inflight.values())
                    wait_for = max(0.0, nearest - time.monotonic())
                done, _ = futures_wait(
                    set(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
                )

                if not done:
                    self._handle_timeout(inflight, queue, records)
                    broken = True
                    return

                for future in done:
                    job, _ = inflight.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        # The worker process died (os._exit, signal,
                        # OOM-kill...): the pool is broken.
                        self._worker_died(job, exc, queue, records)
                        broken = True
                        continue
                    record = future.result()
                    if record.ok:
                        record.attempts = job.attempts
                        self._finalize(job, record, records)
                    elif job.attempts > self.retries:
                        record.attempts = job.attempts
                        self._finalize(job, record, records)
                    else:
                        queue.append(job)  # soft failure: retry later

                if broken:
                    # Every other in-flight future is doomed with the
                    # pool; requeue still-running jobs without charging
                    # them the attempt they never got to finish.
                    for future, (job, _) in list(inflight.items()):
                        if future.done() and future.exception() is not None:
                            self._worker_died(
                                job, future.exception(), queue, records
                            )
                        elif future.done():
                            record = future.result()
                            record.attempts = job.attempts
                            self._finalize(job, record, records)
                        else:
                            job.attempts -= 1
                            queue.appendleft(job)
                    inflight.clear()
                    return
        finally:
            if broken or inflight:
                kill_executor(executor)
            else:
                executor.shutdown(wait=True)

    def _handle_timeout(self, inflight, queue, records) -> None:
        """Per-job deadline passed with nothing completing: kill the
        pool, charge the expired jobs, requeue the innocent ones."""
        now = time.monotonic()
        for future, (job, deadline) in list(inflight.items()):
            if future.done() and future.exception() is None:
                record = future.result()
                record.attempts = job.attempts
                self._finalize(job, record, records)
            elif deadline is not None and deadline <= now:
                self._register_failure(
                    job,
                    f"timed out after {self.timeout}s "
                    f"(attempt {job.attempts})",
                    queue, records,
                )
            else:
                job.attempts -= 1
                queue.appendleft(job)
        inflight.clear()

    def _worker_died(self, job: _Job, exc, queue, records) -> None:
        """Charge a job whose future the broken pool failed, and make it
        a suspect: whether its own worker died or a pool-mate's cannot
        be told apart, so from here on it runs with nothing beside it."""
        job.suspect = True
        self._register_failure(
            job, f"worker process died: {exc!r}", queue, records
        )

    def _register_failure(self, job: _Job, error: str, queue, records) -> None:
        """Charge a hard failure: retry (at the back of the queue,
        behind untouched work) or finalize as failed."""
        if job.attempts > self.retries:
            self._finalize(
                job,
                RunRecord(
                    digest=job.spec.digest(),
                    ok=False,
                    error=error,
                    attempts=job.attempts,
                ),
                records,
            )
        else:
            queue.append(job)

    def _finalize(self, job: _Job, record: RunRecord, records) -> None:
        records[job.index] = record
        if self.cache is not None and record.ok:
            self.cache.put(job.spec, record)
        self._events.job_finished(job.index, job.spec, record)


def kill_executor(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down hard, hung or busy workers included, and
    reap its processes before returning.

    ``shutdown()`` alone never reaps a worker stuck in C code or a
    sleep, so the processes are killed first (via the private
    ``_processes`` map — there is no public API for this).
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass
