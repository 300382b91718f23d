"""Async job management over a pool of worker processes.

:class:`JobManager` is the service's brain: it owns the job table, the
FIFO queue, the worker coroutines and the process pool the trials
execute in.  Its invariants:

- **one job per digest** — concurrent submissions of the same spec
  attach to one :class:`Job`; exactly one trial executes and every
  attached client reads the same record;
- **content-addressed dedup** — a digest already answered by the
  :class:`~repro.runner.cache.ResultCache`, the one result store,
  becomes an already-done job without touching the queue;
- **explicit backpressure** — per-client quotas and a bounded queue;
  violations raise :class:`QuotaExceeded` / :class:`QueueFull` carrying
  a ``retry_after`` hint (the HTTP layer maps both onto 429 +
  ``Retry-After``), and a batch submission is all-or-nothing;
- **never block the loop** — every trial runs in one of
  ``concurrency`` worker processes of a
  :class:`~repro.runner.pool.TrialPool`, the attempt loop CLI sweeps
  use too (its retry rule, its dead-worker rule, its CPU budget); the
  loop awaits the trial, emits the job's progress events itself, and
  slow/vanished SSE subscribers just drop frames (``put_nowait`` on a
  bounded queue) instead of stalling the worker;
- **everything recorded** — one registry connection, opened on the
  loop by the first executed job and closed by
  :meth:`JobManager.aclose`; every job records through the ordinary
  :class:`RegistrySink` event path.  The registry is the run log:
  nothing reads it to answer a job.

All public methods must be called from the event-loop thread.
``submit_many`` contains no awaits, so a whole batch admission is
atomic under asyncio's run-to-completion semantics.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from ..obs.logging import log_enabled, new_cid
from ..runner.cache import ResultCache
from ..runner.jobs import RunRecord, RunSpec
from ..runner.pool import TrialPool, log_sink
from ..runner.progress import (
    JsonProgress,
    ProgressSink,
    SweepTiming,
    TeeProgress,
    record_summary,
)

__all__ = [
    "Job",
    "JobManager",
    "QueueFull",
    "QuotaExceeded",
    "SubmitRejected",
]

#: job states (terminal: done / failed / cancelled).
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled",
)
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: per-subscriber SSE buffer (frames beyond this are dropped for that
#: subscriber only; the job and other subscribers are unaffected).
SUBSCRIBER_BUFFER = 256
#: per-job progress-event replay kept for late subscribers.
EVENT_HISTORY = 512
#: terminal jobs kept in the table before eviction (FIFO).
HISTORY_LIMIT = 1024


class SubmitRejected(Exception):
    """Base: a submission the service refused, with a retry hint."""

    def __init__(self, message: str, retry_after: float) -> None:
        self.retry_after = max(1.0, retry_after)
        super().__init__(message)


class QuotaExceeded(SubmitRejected):
    """The client already has its quota of active jobs."""


class QueueFull(SubmitRejected):
    """The service-wide queue is at capacity."""


@dataclass
class Job:
    """One digest's lifecycle inside the manager."""

    digest: str
    spec: RunSpec
    state: str = QUEUED
    #: client ids attached to this job (submitters + dedup joiners).
    clients: Set[str] = field(default_factory=set)
    record: Optional[RunRecord] = None
    #: progress payloads so far (replayed to late subscribers).
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: Set[asyncio.Queue] = field(default_factory=set)
    #: cancel requested while running: the trial's result is discarded.
    cancelling: bool = False
    done: asyncio.Event = field(default_factory=asyncio.Event)
    #: True when the job was answered by the cache, not execution.
    from_cache: bool = False
    #: SSE frames dropped across all subscribers (observability).
    dropped_frames: int = 0
    #: correlation id threaded into runner and worker structured logs
    #: (minted when the job starts executing; empty for cache answers).
    cid: str = ""

    def active(self) -> bool:
        return self.state not in TERMINAL

    def status_payload(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "digest": self.digest,
            "state": self.state,
            "label": self.spec.display(),
            "clients": sorted(self.clients),
            "from_cache": self.from_cache,
        }
        if self.cid:
            out["cid"] = self.cid
        if self.record is not None:
            out["record"] = record_summary(self.record)
        return out


class JobManager:
    """Owns jobs, queue, quotas, and the trials' process pool."""

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        registry_path: Optional[str] = None,
        concurrency: int = 1,
        max_queue: int = 64,
        quota: int = 8,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1: {concurrency}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1: {max_queue}")
        if quota < 1:
            raise ValueError(f"quota must be >= 1: {quota}")
        self.cache = cache
        self.registry_path = registry_path
        #: the revision every registry row of this process names:
        #: resolved once, so rows name the code this process imported.
        self._git_rev = ""
        if registry_path:
            from ..obs import registry

            self._git_rev = registry.current_git_rev()
        self.concurrency = concurrency
        self.max_queue = max_queue
        self.quota = quota
        #: digest -> job, oldest first.  An OrderedDict, so eviction
        #: walks only the head it drops (a plain dict's iteration also
        #: walks the slots earlier deletions left behind).
        self.jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._queue: asyncio.Queue = asyncio.Queue()
        #: the trials' worker processes, forked at the first dispatch.
        self._trials = TrialPool(concurrency)
        self._registry = None  # RunRegistry, opened by the first job
        self._workers: List[asyncio.Task] = []
        self._wall_times: List[float] = []  # recent executed wall clocks
        #: admission rejections since start (telemetry counters).
        self.rejected_quota = 0
        self.rejected_queue = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker coroutines (call once, loop running)."""
        if self._workers:
            return
        for index in range(self.concurrency):
            self._workers.append(
                asyncio.get_running_loop().create_task(
                    self._worker(), name=f"repro-worker-{index}"
                )
            )

    async def aclose(self) -> None:
        """Stop the workers, kill the pool's processes — one still
        running a trial too, so shutdown never waits on a trial — and
        close the registry connection."""
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers.clear()
        self._trials.close()
        if self._registry is not None:
            self._registry.close()
            self._registry = None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _active_for(self, client: str) -> int:
        return sum(
            1 for job in self.jobs.values()
            if job.active() and client in job.clients
        )

    def retry_after(self) -> float:
        """Seconds a rejected client should wait before retrying.

        Estimated drain time of one queue slot: mean executed wall
        clock (default 5s before any job completed) times queued jobs,
        over the worker count.
        """
        mean = (
            sum(self._wall_times) / len(self._wall_times)
            if self._wall_times else 5.0
        )
        queued = sum(1 for j in self.jobs.values() if j.state == QUEUED)
        return min(600.0, max(1.0, mean * max(1, queued) / self.concurrency))

    def submit_many(
        self, specs: Sequence[RunSpec], client: str
    ) -> List[Job]:
        """Admit a batch of specs for one client, all-or-nothing.

        Returns one :class:`Job` per spec (order preserved): a fresh
        queued job, an existing job the client attached to (dedup), or
        an already-done job answered from the cache.  Raises
        :class:`QuotaExceeded` / :class:`QueueFull` without admitting
        anything when the batch does not fit.  No awaits — the whole
        admission decision is atomic on the event loop.
        """
        digests = [spec.digest() for spec in specs]

        # Pass 1 (nothing admitted yet): probe the cache once for every
        # digest the job table does not know; the ones with no
        # answer are the genuinely new jobs.  Does the whole batch fit?
        seen: Set[str] = set(digests)
        found: Dict[str, Optional[RunRecord]] = {}
        for spec, digest in zip(specs, digests):
            if digest not in self.jobs and digest not in found:
                found[digest] = self._lookup_record(spec)
        new_digests = [d for d, record in found.items() if record is None]

        active = self._active_for(client)
        # Attaching to an existing active job counts against the quota
        # too — a client cannot shadow-queue unlimited work by riding
        # other clients' submissions.
        joining = sum(
            1 for digest in seen
            if digest in self.jobs and self.jobs[digest].active()
            and client not in self.jobs[digest].clients
        )
        if active + joining + len(new_digests) > self.quota:
            self.rejected_quota += 1
            raise QuotaExceeded(
                f"client {client!r} would hold "
                f"{active + joining + len(new_digests)} active jobs; "
                f"the quota is {self.quota}",
                self.retry_after(),
            )
        queued = sum(1 for j in self.jobs.values() if j.state == QUEUED)
        if queued + len(new_digests) > self.max_queue:
            self.rejected_queue += 1
            raise QueueFull(
                f"queue is full ({queued}/{self.max_queue} queued; "
                f"batch adds {len(new_digests)})",
                self.retry_after(),
            )

        # Pass 2: admit.
        out: List[Job] = []
        for spec, digest in zip(specs, digests):
            job = self.jobs.get(digest)
            if job is None:
                record = found[digest]
                if record is not None:
                    job = self._adopt_record(spec, digest, record)
                else:
                    job = Job(digest=digest, spec=spec)
                    self._remember(job)
                    self._queue.put_nowait(digest)
            job.clients.add(client)
            out.append(job)
        return out

    def _remember(self, job: Job) -> None:
        self.jobs[job.digest] = job
        self._evict()

    def _evict(self) -> None:
        """Drop the oldest terminal jobs past the history limit.

        Active and watched jobs are skipped, so the walk costs the jobs
        dropped plus those few, not the whole history.
        """
        excess = len(self.jobs) - HISTORY_LIMIT
        if excess <= 0:
            return
        doomed = []
        for digest, job in self.jobs.items():
            if not job.active() and not job.subscribers:
                doomed.append(digest)
                if len(doomed) == excess:
                    break
        for digest in doomed:
            del self.jobs[digest]

    def _lookup_record(self, spec: RunSpec) -> Optional[RunRecord]:
        """Dedup: the cached ok result for this digest, if any."""
        return self.cache.get(spec) if self.cache is not None else None

    def _adopt_record(
        self, spec: RunSpec, digest: str, record: RunRecord
    ) -> Job:
        job = Job(
            digest=digest, spec=spec, state=DONE,
            record=record, from_cache=True,
        )
        JsonProgress(job.events.append).job_finished(0, spec, record)
        job.done.set()
        self._remember(job)
        return job

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            digest = await self._queue.get()
            job = self.jobs.get(digest)
            if job is None or job.state != QUEUED:
                continue  # cancelled (or evicted) while queued
            await self._execute(job)

    async def _execute(self, job: Job) -> None:
        job.state = RUNNING
        job.cid = new_cid()
        try:
            record = await self._sweep(job, self._progress(job))
        except Exception as exc:  # a sink raised (a registry write)
            record = RunRecord(
                digest=job.digest, ok=False,
                error=f"service execution error: {exc!r}",
            )
        finally:
            if self._registry is not None:
                # a job that raised between begin_sweep and its commit
                # must not leave the kept connection holding the lock
                self._registry.rollback()
        job.record = record
        if record.cancelled:
            job.state = CANCELLED
        elif record.ok:
            job.state = DONE
        else:
            job.state = FAILED
        if record.ok:
            self._wall_times.append(record.wall_time)
            del self._wall_times[:-50]
        self._finish(job)

    def _progress(self, job: Job) -> ProgressSink:
        """The job's event stream: its history and subscribers, the
        registry, and with logging on the ``runner`` log lines."""
        sinks: List[ProgressSink] = [
            JsonProgress(lambda payload: self._deliver(job, payload))
        ]
        if self.registry_path:
            from ..obs.registry import RegistrySink, RunRegistry

            if self._registry is None:
                self._registry = RunRegistry(
                    self.registry_path, git_rev=self._git_rev
                )
            sinks.append(RegistrySink(self._registry, label="service"))
        if log_enabled():
            sinks.append(log_sink(job.cid))
        return TeeProgress(*sinks)

    async def _sweep(self, job: Job, events: ProgressSink) -> RunRecord:
        """The job as the runner's one-spec sweep of a cache miss (its
        admission probed the cache): the same events, with the trial
        run in the pool and the cache written on the loop."""
        started = time.perf_counter()
        events.sweep_started(1, 0, 1)
        record = await self._trials.run(
            job.spec, f"{job.cid}/0",
            lambda attempt: events.job_started(0, job.spec, attempt),
            lambda: job.cancelling,
        )
        if self.cache is not None:
            self.cache.put(job.spec, record)  # stores ok records only
        events.job_finished(0, job.spec, record)
        events.sweep_finished(SweepTiming(
            elapsed=time.perf_counter() - started,
            jobs=1,
            failed=int(not record.ok),
            total_job_wall=record.wall_time,
            max_job_wall=record.wall_time,
            cache_misses=int(self.cache is not None),
        ))
        return record

    def _deliver(self, job: Job, payload: Dict[str, Any]) -> None:
        """One runner event, on the loop: into the job's history and
        out to its subscribers."""
        if len(job.events) < EVENT_HISTORY:
            job.events.append(payload)
        self._broadcast(job, payload)

    def _broadcast(self, job: Job, payload: Dict[str, Any]) -> None:
        for queue in list(job.subscribers):
            try:
                queue.put_nowait(payload)
            except asyncio.QueueFull:
                job.dropped_frames += 1

    def _finish(self, job: Job) -> None:
        self._broadcast(job, {"event": "done", "job": job.status_payload()})
        job.done.set()

    # ------------------------------------------------------------------
    # watching
    # ------------------------------------------------------------------
    def subscribe(self, digest: str) -> asyncio.Queue:
        """A bounded queue of this job's events, past and future.

        Already-emitted events are replayed first; a terminal job gets
        its ``done`` frame immediately.  The caller must
        :meth:`unsubscribe` the queue when finished with it.
        """
        job = self._require(digest)
        queue: asyncio.Queue = asyncio.Queue(maxsize=SUBSCRIBER_BUFFER)
        for payload in job.events[-(SUBSCRIBER_BUFFER - 1):]:
            queue.put_nowait(payload)
        if not job.active():
            queue.put_nowait({"event": "done", "job": job.status_payload()})
        else:
            job.subscribers.add(queue)
        return queue

    def unsubscribe(self, digest: str, queue: asyncio.Queue) -> None:
        job = self.jobs.get(digest)
        if job is not None:
            job.subscribers.discard(queue)

    # ------------------------------------------------------------------
    # cancellation / introspection
    # ------------------------------------------------------------------
    def cancel(self, digest: str) -> Job:
        """Cancel a queued or running job; terminal jobs are left as-is.

        A queued job is resolved immediately (its queue entry becomes a
        no-op); a running job resolves when its trial lands, which is
        then discarded (and never cached).
        """
        job = self._require(digest)
        if not job.active():
            return job
        if job.state == QUEUED:
            job.state = CANCELLED
            job.record = RunRecord(
                digest=digest, ok=False, cancelled=True,
                error="cancelled while queued", attempts=0,
            )
            self._finish(job)
        else:
            job.cancelling = True
        return job

    def _require(self, digest: str) -> Job:
        job = self.jobs.get(digest)
        if job is None:
            raise KeyError(digest)
        return job

    @property
    def workers_started(self) -> bool:
        """True once :meth:`start` spawned the worker coroutines."""
        return bool(self._workers)

    def telemetry(self) -> Dict[str, Any]:
        """Scrape-time operational readings (the ``/metrics`` gauges)."""
        running = sum(1 for j in self.jobs.values() if j.state == RUNNING)
        queued = sum(1 for j in self.jobs.values() if j.state == QUEUED)
        subscribers = sum(len(j.subscribers) for j in self.jobs.values())
        dropped_frames = sum(
            j.dropped_frames for j in self.jobs.values()
        )
        return {
            "in_flight": running,
            "queued": queued,
            "jobs": len(self.jobs),
            "subscribers": subscribers,
            "dropped_frames": dropped_frames,
            "rejected_quota": self.rejected_quota,
            "rejected_queue": self.rejected_queue,
        }

    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": len(self.jobs),
            "states": states,
            "queued": sum(
                1 for j in self.jobs.values() if j.state == QUEUED
            ),
            "max_queue": self.max_queue,
            "quota": self.quota,
            "concurrency": self.concurrency,
            "retry_after": self.retry_after(),
        }

