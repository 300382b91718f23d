"""One attempt loop for every trial, and the sweep runner over it.

:class:`TrialPool` runs single trials on an asyncio loop, in forked
worker processes or, for the serial reference, in this process.  CLI
sweeps (through :class:`ParallelRunner`) and the emulation service
(through :class:`~repro.service.manager.JobManager`) both await it:

- **bounded retry** — a trial that fails (an ``ok=False`` record) or
  whose worker dies is attempted again until :data:`RETRIES` extra
  attempts are spent; the last record is the answer, never an
  exception;
- **a dead worker costs one attempt, then its trial runs alone** — the
  executor fails *every* in-flight future when a worker dies, and the
  culprit cannot be told from its pool-mates, so each of them is
  charged and from then on waits for the pool to empty and runs with
  nothing beside it.  A trial that always kills its worker drains only
  its own retries; the broken pool is replaced at the next dispatch;
- **a CPU budget, not a timeout** — before each trial a worker sets its
  ``RLIMIT_CPU`` soft limit to the CPU it has used so far plus
  :data:`TRIAL_CPU_SECONDS`, so a runaway trial dies of SIGXCPU and
  takes the dead-worker path above.  In-process trials have no budget;
- **cancel before dispatch** — the caller's ``cancelled()`` is checked
  before each attempt starts and after it lands;
- **workers that die with their parent** — a worker is SIGKILLed when
  the thread that forked it (the loop's) ends, a SIGKILLed server
  included, writes no core file, and holds none of its parent's sockets
  (:func:`_start_worker`).

:class:`ParallelRunner` drives the loop over a list of specs with
``n_workers`` consumers: results by *input position*, never completion
order, so a parallel sweep assembles bit-identically to the serial
one; a read-through :class:`~repro.runner.cache.ResultCache`, so a
re-run only executes missing trials; ``n_workers=1`` runs every trial
in-process (no subprocesses — debuggable, and the reference for
equality).
"""

from __future__ import annotations

# asyncio is imported where a loop runs, so that ``import repro.cli``
# stays without its 32 modules.
import functools
import math
import multiprocessing
import os
import signal
import stat
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

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

__all__ = ["ParallelRunner", "TrialPool", "default_workers", "log_sink"]

RETRIES = 1  # extra attempts after a failed trial or a dead worker
#: CPU seconds a pool trial may use before SIGXCPU ends its worker:
#: 40x the longest trial ``repro reproduce`` runs (15.2 s of wall time,
#: which bounds its CPU time, on a 2-vCPU host).
TRIAL_CPU_SECONDS = 600


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


class TrialPool:
    """Attempts of single trials over one lazily forked process pool
    (``n_workers`` processes), or in this process when ``n_workers`` is
    None.  Every method runs on one event loop."""

    def __init__(self, n_workers: Optional[int]) -> None:
        self.n_workers = n_workers
        #: the fork pool: made at the first pool trial, replaced after
        #: a worker death broke it.
        self.executor: Optional[ProcessPoolExecutor] = None
        #: trials in flight now.
        self.running = 0
        #: attempts that must run alone, waiting or running.
        self._suspects = 0
        #: a future resolved when a trial lands (made on demand by a
        #: waiter).
        self._landed = None

    async def run(
        self,
        spec: RunSpec,
        cid: str,
        started: Callable[[int], None],
        cancelled: Callable[[], bool] = lambda: False,
    ) -> RunRecord:
        """Attempt ``spec`` until it succeeds or :data:`RETRIES` is
        spent; ``started(attempt)`` announces each dispatch.  A trial
        cancelled meanwhile gets a cancelled record instead."""
        attempt, alone = 0, False
        while True:
            try:
                record = await self._attempt(
                    spec, cid, alone, started, attempt + 1, cancelled
                )
            except BrokenProcessPool as exc:
                alone = True  # it may have been the killer: run alone
                record = RunRecord(
                    digest=spec.digest(), ok=False,
                    error=f"worker process died: {exc!r}",
                )
            if record is not None:
                attempt += 1
            if record is None or cancelled():
                return RunRecord(
                    digest=spec.digest(), ok=False, cancelled=True,
                    error="cancelled by request before completion",
                    attempts=attempt,
                )
            if record.ok or attempt > RETRIES:
                record.attempts = attempt
                return record

    async def _attempt(
        self, spec, cid, alone, started, attempt, cancelled
    ) -> Optional[RunRecord]:
        """Attempt ``attempt``, or None (no trial started) when the
        trial was cancelled while it waited for its turn.  An ``alone``
        attempt waits for the pool to empty and holds every other
        attempt back until it lands; a pool that broke under it is
        replaced."""
        import asyncio

        self._suspects += alone
        try:
            while self.running if alone else self._suspects:
                if self._landed is None:
                    self._landed = asyncio.get_running_loop().create_future()
                await asyncio.wait([self._landed])
            if cancelled():
                return None
            started(attempt)
            self.running += 1
            try:
                if self.n_workers is None:
                    record = execute_spec(spec, cid)
                    record.worker = "serial"
                    return record
                if self.executor is None:
                    # Under fork the executor starts every worker at its
                    # first submit, before its own manager thread.
                    self.executor = ProcessPoolExecutor(
                        self.n_workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_start_worker,
                        initargs=(os.getpid(),),
                    )
                executor = self.executor
                try:
                    return await asyncio.wrap_future(
                        executor.submit(_budgeted_trial, spec, cid)
                    )
                except BrokenProcessPool:
                    if executor is self.executor:
                        self.close()
                    raise
            finally:
                self.running -= 1
        finally:
            self._suspects -= alone
            if self._landed is not None:
                self._landed.set_result(None)
                self._landed = None

    def close(self) -> None:
        """Kill the pool's processes, one still running a trial too, and
        reap them before returning.

        ``shutdown()`` alone never reaps a worker stuck in C code or a
        sleep, so the processes are killed first (via the private
        ``_processes`` map — there is no public API for this).
        """
        executor, self.executor = self.executor, None
        if executor is None:
            return
        for process in list((executor._processes or {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass


class ParallelRunner:
    """Execute a list of specs and return records in input order."""

    def __init__(
        self,
        n_workers: int = 1,
        *,
        cache: Union[ResultCache, str, os.PathLike, None] = None,
        progress: Union[None, str, ProgressSink] = None,
        registry=None,
        cid: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        self.n_workers = n_workers
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
            # Recording rides the event stream every trial (and cache
            # hit) already emits, so serial and parallel runs record
            # identically.
            self.progress = TeeProgress(self.progress, self.registry_sink)
        #: timing stats of the most recent :meth:`run`.
        self.last_timing: Optional[SweepTiming] = None
        #: the sink :meth:`run` announces to: ``progress``, plus the
        #: structured log when logging is enabled.
        self._events: ProgressSink = self.progress

    # ------------------------------------------------------------------
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

        pending: deque = deque()
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
                pending.append(index)

        self._events.sweep_started(len(specs), n_cached, self.n_workers)
        for index, record in enumerate(records):
            if record is not None:
                self._events.job_finished(index, specs[index], record)

        if pending:
            import asyncio

            # A loop of our own, not asyncio.run: from 3.11 that turns
            # the first Ctrl-C into a cancel, which an in-process trial
            # would not see until it ends.
            trials = TrialPool(self.n_workers if self.n_workers > 1 else None)
            loop = asyncio.new_event_loop()
            try:
                loop.run_until_complete(
                    self._drain(trials, specs, pending, records)
                )
            finally:
                trials.close()
                loop.close()

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

    async def _drain(self, trials, specs, pending, records) -> None:
        """``n_workers`` consumers, each taking the next pending spec,
        awaiting its attempts and filing its record."""
        import asyncio

        async def consume() -> None:
            while pending:
                index = pending.popleft()
                spec = specs[index]
                record = await trials.run(
                    spec,
                    f"{self.cid}/{index}" if self.cid else "",
                    functools.partial(self._events.job_started, index, spec),
                )
                records[index] = record
                if self.cache is not None and record.ok:
                    self.cache.put(spec, record)
                self._events.job_finished(index, spec, record)

        await asyncio.gather(*(consume() for _ in range(self.n_workers)))


def _start_worker(parent: int) -> None:
    """Worker side, at start: bind the worker to its parent and drop what
    the fork copied.

    The kernel SIGKILLs the worker when the thread that forked it ends,
    a SIGKILLed server included; a parent gone before that was set is
    caught by the ``getppid`` check.  A SIGXCPU death (the CPU budget)
    writes no core file.  Its sockets point at /dev/null: a worker
    holding one would keep a connection the server closed from ending
    (pointed, not closed, so no stale socket object closes a descriptor
    a trial reuses).  SIGTERM ends the worker again (the executor
    terminates a broken pool with it); Ctrl-C reaches the parent alone,
    whose shutdown kills them.
    """
    import resource

    if sys.platform.startswith("linux"):
        import ctypes

        PR_SET_PDEATHSIG = 1
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    resource.setrlimit(
        resource.RLIMIT_CORE, (0, resource.getrlimit(resource.RLIMIT_CORE)[1])
    )
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    null = os.open(os.devnull, os.O_RDWR)
    for name in os.listdir("/dev/fd"):
        try:
            if stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                os.dup2(null, int(name))
        except OSError:
            pass  # the listing's own descriptor, closed by now
    os.close(null)


def _budgeted_trial(spec: RunSpec, cid: str) -> RunRecord:
    """Worker side: allow this trial :data:`TRIAL_CPU_SECONDS` of CPU
    beyond what the worker has used so far, then run it."""
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_CPU)
    soft = math.ceil(time.process_time()) + TRIAL_CPU_SECONDS
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_CPU, (soft, hard))
    return execute_spec(spec, cid)

