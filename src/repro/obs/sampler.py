"""Low-overhead sampling wall-clock profiler for trials.

A :class:`StackSampler` periodically captures the Python stack of the
thread that started it and accumulates flamegraph-compatible collapsed
stacks (``frame;frame;frame count``).  Two capture modes, chosen
automatically:

- **signal mode** (worker processes, CLI runs): ``SIGALRM`` via
  ``signal.setitimer`` — the handler receives the interrupted frame
  directly, so a sample costs one handler invocation with zero
  between-sample overhead.  Only available from the main thread.
- **thread mode** (the service, whose trials run on executor threads):
  a daemon thread wakes at the sampling interval and reads the target
  thread's frame out of ``sys._current_frames()``.

Sampling is opt-in per :class:`~repro.runner.jobs.RunSpec` via
``sample_hz`` (``--sample-hz`` on the CLI) and digest-gated like
``profile`` — default specs keep their legacy digests and pay nothing.
Collapsed stacks ride ``RunRecord.sample_stacks`` through the cache and
registry; ``repro runs show`` and the dashboard's Ops section render
the top frames.  Overhead at the default rate is gated to <= 5% by
the ``slow`` case in ``tests/obs/test_sampler.py``.  See
docs/operations.md.
"""

from __future__ import annotations

import signal
import sys
import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_HZ",
    "MAX_HZ",
    "StackSampler",
    "collapsed_text",
    "merge_stacks",
    "top_frames",
]

#: sampling rate used when a caller asks for sampling without a rate.
DEFAULT_HZ = 97.0

#: upper bound on the sampling rate — above this the handler itself
#: starts to dominate and the <=5% overhead budget is blown.
MAX_HZ = 997.0

#: frames beyond this depth collapse into a ``...`` prefix (innermost
#: frames are the interesting ones for a flamegraph).
MAX_DEPTH = 64


def _frame_label(frame) -> str:
    module = frame.f_globals.get("__name__", "?")
    return f"{module}.{frame.f_code.co_name}"


class StackSampler:
    """Samples the starting thread's stack at ``hz`` until stopped.

    Usable as a context manager; :attr:`counts` maps collapsed stacks
    (outermost first, ``;``-joined) to sample counts and
    :attr:`samples` totals them.  ``start``/``stop`` are idempotent
    enough for the error paths that matter: ``stop`` always restores
    the previous ``SIGALRM`` disposition in signal mode.
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"sample rate must be positive: {hz!r}")
        self.hz = min(float(hz), MAX_HZ)
        self.interval = 1.0 / self.hz
        self.counts: Dict[str, int] = {}
        self.samples = 0
        self.mode: Optional[str] = None
        self._old_handler = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[threading.Event] = None
        self._target_ident: Optional[int] = None

    # ------------------------------------------------------------------
    def start(self) -> "StackSampler":
        if self.mode is not None:
            raise RuntimeError("sampler already started")
        use_signal = (
            threading.current_thread() is threading.main_thread()
            and hasattr(signal, "setitimer")
            and hasattr(signal, "SIGALRM")
        )
        if use_signal:
            self.mode = "signal"
            self._old_handler = signal.signal(signal.SIGALRM, self._on_signal)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        else:
            self.mode = "thread"
            self._target_ident = threading.get_ident()
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-sampler", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> Dict[str, int]:
        """Stop sampling and return the collapsed-stack counts."""
        if self.mode == "signal":
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            if self._old_handler is not None:
                signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None
        elif self.mode == "thread":
            assert self._stop_event is not None and self._thread is not None
            self._stop_event.set()
            self._thread.join(timeout=2.0)
            self._thread = None
            self._stop_event = None
        self.mode = None
        return self.counts

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _on_signal(self, signum, frame) -> None:
        if frame is not None:
            self._record(frame)

    def _sample_loop(self) -> None:
        assert self._stop_event is not None
        while not self._stop_event.wait(self.interval):
            frame = sys._current_frames().get(self._target_ident)
            if frame is not None:
                self._record(frame)

    def _record(self, frame) -> None:
        parts: List[str] = []
        while frame is not None:
            label = _frame_label(frame)
            # the sampler's own machinery never belongs in a profile
            if not label.startswith(__name__ + "."):
                parts.append(label)
            frame = frame.f_back
        parts.reverse()
        if len(parts) > MAX_DEPTH:
            parts = ["..."] + parts[-MAX_DEPTH:]
        stack = ";".join(parts) if parts else "(idle)"
        self.counts[stack] = self.counts.get(stack, 0) + 1
        self.samples += 1


# ----------------------------------------------------------------------
# aggregation helpers (registry rows, dashboard, `runs show`)
# ----------------------------------------------------------------------
def merge_stacks(stack_dicts: Iterable[Optional[Dict[str, int]]]) -> Dict[str, int]:
    """Sum collapsed-stack dicts across trials (``None`` entries skipped)."""
    merged: Dict[str, int] = {}
    for counts in stack_dicts:
        for stack, n in (counts or {}).items():
            merged[stack] = merged.get(stack, 0) + n
    return merged


def top_frames(
    counts: Optional[Dict[str, int]], *, top: int = 15,
) -> List[Tuple[str, int, float]]:
    """Rank leaf frames by self samples: ``(frame, samples, share)``.

    The leaf of each collapsed stack is where the program counter
    actually was, so per-leaf totals are self-time shares — the
    flamegraph's hottest boxes without rendering the flamegraph.
    """
    totals: Dict[str, int] = {}
    grand = 0
    for stack, n in (counts or {}).items():
        leaf = stack.rsplit(";", 1)[-1]
        totals[leaf] = totals.get(leaf, 0) + n
        grand += n
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        (frame, n, n / grand if grand else 0.0)
        for frame, n in ranked[:top]
    ]


def collapsed_text(counts: Optional[Dict[str, int]]) -> str:
    """Flamegraph collapsed-stack text (``stack count`` per line, sorted
    by descending count then stack) — feed to any flamegraph renderer."""
    ranked = sorted(
        (counts or {}).items(), key=lambda kv: (-kv[1], kv[0]),
    )
    return "\n".join(f"{stack} {n}" for stack, n in ranked)
