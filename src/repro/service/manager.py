"""Async job management over a pool of worker processes.

:class:`JobManager` is the service's brain: it owns the job table, the
FIFO queue, the worker coroutines and the process pool the trials
execute in.  Its invariants:

- **one job per digest** — concurrent submissions of the same spec
  attach to one :class:`Job`; exactly one trial executes and every
  attached client reads the same record.  A cancelled or failed job is
  dead: a later submit of its digest replaces it with a fresh job;
- **explicit backpressure** — per-client quotas and a bounded queue;
  violations raise :class:`QuotaExceeded` / :class:`QueueFull` carrying
  a ``retry_after`` hint (the HTTP layer maps both onto 429 +
  ``Retry-After``), and a batch submission is all-or-nothing;
- **the runner's own sweep** — a digest the
  :class:`~repro.runner.cache.ResultCache`, the one result store,
  answers (:func:`~repro.runner.pool.cache_answer`) becomes an
  already-done job without touching the queue; any other job runs as a
  one-spec :func:`~repro.runner.pool.sweep` over one
  :class:`~repro.runner.pool.TrialPool` of ``concurrency`` worker
  processes: a CLI sweep's events, timing and attempt loop (retry rule,
  dead-worker rule, CPU budget).  An anatomy-on submit that attaches to
  a job made without anatomy gets it derived, as from a cache hit;
- **never block the loop** — slow/vanished SSE subscribers just drop
  frames (``put_nowait`` on a bounded queue) instead of stalling the
  worker;
- **everything recorded** — one registry connection, opened on the
  loop by the first executed job and closed by
  :meth:`JobManager.aclose`; every executed job records through the
  ordinary :class:`RegistrySink` event path (a cache answer writes no
  row).  The registry is the run log: nothing reads it to answer a job.

All public methods must be called from the event-loop thread.
``submit_many`` contains no awaits, so a whole batch admission is
atomic under asyncio's run-to-completion semantics.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set

from ..obs.logging import new_cid
from ..runner.cache import ResultCache
from ..runner.jobs import RunRecord, RunSpec
from ..runner.pool import (
    TrialPool, cache_answer, sweep, sweep_sink, with_anatomy,
)
from ..runner.progress import JsonProgress, record_summary

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
        queued = self._queued()
        return min(600.0, max(1.0, mean * max(1, queued) / self.concurrency))

    def submit_many(
        self, specs: Sequence[RunSpec], client: str
    ) -> List[Job]:
        """Admit a batch of specs for one client, all-or-nothing.

        Returns one :class:`Job` per spec (order preserved): a fresh
        queued job, an existing queued, running or done job the client
        attached to (dedup), or an already-done job answered from the
        cache.  A cancelled or failed job takes no attachments: its
        digest is admitted as if the table did not know it.  Raises
        :class:`QuotaExceeded` / :class:`QueueFull` without admitting
        anything when the batch does not fit.  No awaits — the whole
        admission decision is atomic on the event loop.
        """
        digests = [spec.digest() for spec in specs]

        # Pass 1 (nothing admitted yet): probe the cache once for every
        # digest with no live job; the ones with no answer are the
        # genuinely new jobs.  Does the whole batch fit?
        seen: Set[str] = set(digests)
        live = {d: self._live_job(d) for d in seen}
        found: Dict[str, Optional[RunRecord]] = {}
        for spec, digest in zip(specs, digests):
            if live[digest] is None and digest not in found:
                found[digest] = cache_answer(self.cache, spec)
        new_digests = [d for d, record in found.items() if record is None]

        active = self._active_for(client)
        # Attaching to an existing active job counts against the quota
        # too — a client cannot shadow-queue unlimited work by riding
        # other clients' submissions.
        joining = sum(
            1 for job in live.values()
            if job is not None and job.active() and client not in job.clients
        )
        if active + joining + len(new_digests) > self.quota:
            self.rejected_quota += 1
            raise QuotaExceeded(
                f"client {client!r} would hold "
                f"{active + joining + len(new_digests)} active jobs; "
                f"the quota is {self.quota}",
                self.retry_after(),
            )
        queued = self._queued()
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
            job = live[digest]
            if job is None:
                record = found[digest]
                if record is not None:
                    job = self._adopt_record(spec, digest, record)
                else:
                    job = Job(digest=digest, spec=spec)
                    self._remember(job)
                    self._queue.put_nowait(digest)
                live[digest] = job
            elif spec.anatomy and not job.spec.anatomy:
                # The job now owes its anatomy too: a queued job runs
                # with it, a done job derives it now, a running one
                # when its trial lands (_execute).
                job.spec = replace(job.spec, anatomy=True)
                if job.record is not None:
                    with_anatomy(job.spec, job.record)
            job.clients.add(client)
            out.append(job)
        return out

    def _live_job(self, digest: str) -> Optional[Job]:
        """The job a submit of ``digest`` attaches to: a queued, running
        or done one, else None (a cancelled or failed job is dead)."""
        job = self.jobs.get(digest)
        if job is None or job.state in (CANCELLED, FAILED):
            return None
        return job

    def _remember(self, job: Job) -> None:
        """Enter ``job`` as the newest in the table, replacing a dead
        job of its digest."""
        self.jobs.pop(job.digest, None)
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
            (record,), _ = await sweep(
                self._trials, [job.spec],
                sweep_sink(
                    JsonProgress(lambda payload: self._deliver(job, payload)),
                    self._registry_sink(), job.cid,
                ),
                cache=self.cache, answers=[None], cid=job.cid,
                cancelled=lambda: job.cancelling,
            )
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
        # job.spec may have gained anatomy while the trial ran
        job.record = with_anatomy(job.spec, record)
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

    def _registry_sink(self):
        """An executed job's registry recorder, on the one connection
        this manager keeps (opened here by the first job); None without
        a registry."""
        if not self.registry_path:
            return None
        from ..obs.registry import RegistrySink, RunRegistry

        if self._registry is None:
            self._registry = RunRegistry(
                self.registry_path, git_rev=self._git_rev
            )
        return RegistrySink(self._registry, label="service")

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

    def _queued(self) -> int:
        return sum(job.state == QUEUED for job in self.jobs.values())

    def telemetry(self) -> Dict[str, Any]:
        """Scrape-time operational readings (the ``/metrics`` gauges)."""
        jobs = self.jobs.values()
        return {
            "in_flight": sum(job.state == RUNNING for job in jobs),
            "queued": self._queued(),
            "jobs": len(self.jobs),
            "subscribers": sum(len(job.subscribers) for job in jobs),
            "dropped_frames": sum(job.dropped_frames for job in jobs),
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
            "queued": self._queued(),
            "max_queue": self.max_queue,
            "quota": self.quota,
            "concurrency": self.concurrency,
            "retry_after": self.retry_after(),
        }

