"""Pluggable progress reporting for sweep execution.

The runner announces a small, fixed set of events through one
:class:`ProgressSink`, and that stream is its only output: the
human-readable log, the structured JSON log, the registry and the
service's SSE feed are all sinks of it.

- :class:`ProgressSink` — the no-op base class (quiet mode);
- :class:`LogProgress` — one log line per event to a stream;
- :class:`JsonProgress` — every event as one JSON-ready dict handed to
  an ``emit`` callable (the wire shape of the service API's SSE stream
  and of the runner's structured log lines);
- :class:`TeeProgress` — fans the stream out to several sinks.

:func:`resolve_progress` maps the user-facing shorthand (``None``,
``"log"``, or a sink instance) onto a sink.  :class:`SweepTiming` is
the aggregate the runner hands to ``sweep_finished`` and that sweeps
surface on ``SweepResult.timing``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, TextIO, Union

from .jobs import RunRecord, RunSpec

__all__ = [
    "ProgressSink",
    "LogProgress",
    "TeeProgress",
    "JsonProgress",
    "SweepTiming",
    "record_summary",
    "resolve_progress",
]


@dataclass
class SweepTiming:
    """Per-sweep timing/bookkeeping stats (surfaced on ``SweepResult``)."""

    #: wall-clock seconds for the whole sweep (submit to last result).
    elapsed: float = 0.0
    #: trials in the sweep, and how they resolved.
    jobs: int = 0
    cached: int = 0
    failed: int = 0
    #: summed / max wall-clock seconds of executed (non-cached) trials.
    total_job_wall: float = 0.0
    max_job_wall: float = 0.0
    #: worker processes used (1 == serial in-process).
    workers: int = 1
    #: result-cache lookups this sweep (hits == ``cached``; misses are
    #: trials that had to execute).  Both stay 0 without a cache.
    cache_hits: int = 0
    cache_misses: int = 0
    #: cache directory totals after the sweep (entries / bytes on
    #: disk); None means "not read".  The runner never lists the cache
    #: directory (that costs O(entries) per run): ``run_groups`` reads
    #: them once per sweep, and they are 0 there without a cache.
    cache_entries: Optional[int] = None
    cache_bytes: Optional[int] = None

    @property
    def executed(self) -> int:
        """Trials that actually ran (cache misses)."""
        return self.jobs - self.cached

    @property
    def mean_job_wall(self) -> float:
        """Mean wall-clock of executed trials."""
        return self.total_job_wall / self.executed if self.executed else 0.0

    @property
    def speedup(self) -> float:
        """Summed job time over elapsed time (> 1 means real overlap)."""
        return self.total_job_wall / self.elapsed if self.elapsed > 0 else 0.0


class ProgressSink:
    """Event receiver for a sweep run.  Base class is the quiet sink."""

    def sweep_started(self, total: int, cached: int, workers: int) -> None:
        """Called once before execution; ``cached`` jobs are already done."""

    def job_started(self, index: int, spec: RunSpec, attempt: int) -> None:
        """A trial was handed to a worker (attempt is 1-based)."""

    def job_finished(self, index: int, spec: RunSpec, record: RunRecord) -> None:
        """A trial resolved — successfully, from cache, or failed for good."""

    def sweep_finished(self, timing: SweepTiming) -> None:
        """Called once after the last trial resolves."""


class LogProgress(ProgressSink):
    """One human-readable line per event, to ``stream`` (default stderr).

    ``trial_finished`` lines carry running throughput (executed trials
    per wall-clock second) and an ETA over the remaining trials, so a
    long sweep's tail is predictable from the log alone.  Every line is
    flushed as it is written, so piped logs stream in real time.

    The pace suffix degrades instead of lying: all-cache-hit sweeps
    (nothing executed) and a first tick that lands within clock
    granularity of the start show bare ``k/total`` — a rate
    extrapolated from ~0 elapsed seconds would claim millions of
    trials/s and an ETA of 0.  ``clock`` is injectable for tests.
    """

    #: below this elapsed time (seconds) a rate is noise, not signal.
    MIN_ELAPSED = 1e-3

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock if clock is not None else time.perf_counter
        self._total = 0
        self._done = 0
        self._executed = 0
        self._t0: Optional[float] = None

    def _emit(self, line: str) -> None:
        print(line, file=self.stream, flush=True)

    def sweep_started(self, total: int, cached: int, workers: int) -> None:
        self._total = total
        self._done = 0
        self._executed = 0
        self._t0 = self.clock()
        self._emit(
            f"[runner] {total} trials ({cached} cached), "
            f"{workers} worker{'s' if workers != 1 else ''}"
        )

    def job_started(self, index: int, spec: RunSpec, attempt: int) -> None:
        retry = f" (attempt {attempt})" if attempt > 1 else ""
        self._emit(f"[runner] > {spec.display()}{retry}")

    def _pace(self) -> str:
        """``k/total`` progress plus trials/sec and ETA, from the same
        quantities :class:`SweepTiming` reports at sweep end."""
        pace = f"{self._done}/{self._total}"
        if not self._executed or self._t0 is None:
            # all-cache-hit so far: there is no execution rate to
            # extrapolate from, and cache hits resolve ~instantly anyway
            return pace
        elapsed = self.clock() - self._t0
        if elapsed < self.MIN_ELAPSED:
            # zero-elapsed first tick: any rate computed here is clock
            # granularity, not throughput
            return pace
        rate = self._executed / elapsed
        pace += f", {rate:.2f} trials/s"
        remaining = max(self._total - self._done, 0)
        if remaining:
            pace += f", eta {remaining / rate:.0f}s"
        return pace

    def job_finished(self, index: int, spec: RunSpec, record: RunRecord) -> None:
        self._done += 1
        if not record.cached:
            self._executed += 1
        if record.cached:
            status = "cached"
        elif record.ok:
            status = f"ok in {record.wall_time:.2f}s on {record.worker}"
        else:
            reason = (record.error or "").strip().splitlines()
            status = (
                f"FAILED after {record.attempts} attempt(s)"
                + (f": {reason[-1]}" if reason else "")
            )
        self._emit(f"[runner] < {spec.display()}: {status} [{self._pace()}]")

    def sweep_finished(self, timing: SweepTiming) -> None:
        self._emit(
            f"[runner] done: {timing.jobs} trials "
            f"({timing.cached} cached, {timing.failed} failed) "
            f"in {timing.elapsed:.2f}s "
            f"(job time {timing.total_job_wall:.2f}s, "
            f"speedup {timing.speedup:.2f}x)"
        )


class TeeProgress(ProgressSink):
    """Fan every event out to several sinks (log + registry recorder)."""

    def __init__(self, *sinks: ProgressSink) -> None:
        self.sinks = [s for s in sinks if s is not None]

    def sweep_started(self, total: int, cached: int, workers: int) -> None:
        for sink in self.sinks:
            sink.sweep_started(total, cached, workers)

    def job_started(self, index: int, spec: RunSpec, attempt: int) -> None:
        for sink in self.sinks:
            sink.job_started(index, spec, attempt)

    def job_finished(self, index: int, spec: RunSpec, record: RunRecord) -> None:
        for sink in self.sinks:
            sink.job_finished(index, spec, record)

    def sweep_finished(self, timing: SweepTiming) -> None:
        for sink in self.sinks:
            sink.sweep_finished(timing)


def record_summary(record: RunRecord) -> Dict[str, Any]:
    """A small JSON-ready summary of a :class:`RunRecord`.

    This is what travels over the service API's event stream — headline
    measurement numbers, not the full trace/span payload (fetch the
    result endpoint for those).
    """
    out: Dict[str, Any] = {
        "digest": record.digest,
        "ok": record.ok,
        "cached": record.cached,
        "cancelled": record.cancelled,
        "wall_time": record.wall_time,
        "worker": record.worker,
        "attempts": record.attempts,
    }
    if record.measurement is not None:
        out["convergence_time"] = record.measurement.convergence_time
        out["updates_tx"] = record.measurement.updates_tx
    if record.error:
        lines = record.error.strip().splitlines()
        out["error"] = lines[-1] if lines else record.error.strip()
    return out


class JsonProgress(ProgressSink):
    """Every event as one JSON-ready dict, via ``emit(payload)``.

    The payloads are the wire shape of the service API's SSE stream
    and the fields of the runner's structured log lines:
    ``{"event": <name>, ...}`` with specs reduced to digest/label and
    records to :func:`record_summary`.
    """

    def __init__(self, emit: Callable[[Dict[str, Any]], None]) -> None:
        self.emit = emit

    def sweep_started(self, total: int, cached: int, workers: int) -> None:
        self.emit(
            {
                "event": "sweep_started",
                "total": total,
                "cached": cached,
                "workers": workers,
            }
        )

    def job_started(self, index: int, spec: RunSpec, attempt: int) -> None:
        self.emit(
            {
                "event": "job_started",
                "index": index,
                "digest": spec.digest(),
                "label": spec.display(),
                "attempt": attempt,
            }
        )

    def job_finished(self, index: int, spec: RunSpec, record: RunRecord) -> None:
        self.emit(
            {
                "event": "job_finished",
                "index": index,
                "digest": spec.digest(),
                "label": spec.display(),
                "record": record_summary(record),
            }
        )

    def sweep_finished(self, timing: SweepTiming) -> None:
        self.emit({"event": "sweep_finished", "timing": asdict(timing)})


def resolve_progress(
    progress: Union[None, str, ProgressSink]
) -> ProgressSink:
    """Map the user-facing ``progress=`` shorthand onto a sink:
    ``None`` is quiet, ``"log"`` is :class:`LogProgress`."""
    if progress is None:
        return ProgressSink()
    if isinstance(progress, ProgressSink):
        return progress
    if progress == "log":
        return LogProgress()
    raise ValueError(
        f"unknown progress={progress!r}; use None, 'log' or a ProgressSink"
    )
