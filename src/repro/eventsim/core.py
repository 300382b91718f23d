"""Discrete-event simulation kernel.

The kernel replaces Mininet's real-time execution with deterministic
virtual time.  Everything in the emulation framework — link propagation,
BGP timers, controller debounce delays, probe streams — is driven by a
single :class:`Simulator` event loop.

Events are classified as *foreground* (work that can still change routing
state: message deliveries, MRAI expirations, controller recomputations)
or *background* (periodic housekeeping that never changes routing state
by itself: keepalives, probe transmissions, collector flushes).  The
distinction is what lets :meth:`Simulator.run_until_settled` detect
routing convergence exactly: the network has converged when no foreground
event remains in the queue.

Two interchangeable event queues back the loop (``scheduler=`` knob):

- ``"heap"`` — the classic binary heap (``heapq``), O(log n) per
  operation.  The default, and the reference for determinism.
- ``"calendar"`` — a calendar queue (Brown 1988): events hash into
  time-width buckets ("days"), each a small heap; pops scan forward from
  the current day, so steady-state cost per event is O(1) when the bucket
  width tracks the mean inter-event gap.  The queue resizes (doubling /
  halving buckets, re-estimating the width from the earliest pending
  gaps) deterministically — no wall clock, no randomness.

Both keep ``(time, seq, event)`` tuples in their heaps: ``seq`` is
unique, so ``heapq`` orders them in C and never calls ``Event.__lt__``
(sixteen Python-level comparisons per event at 29k pending).

Both schedulers pop events in the exact global ``(time, seq)`` order, so
a run is bit-identical under either; the scheduler-equivalence test
harness (``tests/properties/test_scheduler_equivalence.py`` and
``tests/experiments/test_scheduler_differential.py``) holds them to that.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimulationError", "CalendarQueue", "SCHEDULERS"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (negative delays) or livelock detection."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    tie-breaker so same-time events run in scheduling order, which keeps
    runs deterministic.  The queues do not call this ordering: they hold
    :data:`Entry` tuples, which the C heap compares without entering
    Python.  Cancel through :meth:`Simulator.cancel` so the kernel's
    foreground bookkeeping stays exact.  ``slots=True`` because
    dense-graph runs keep hundreds of thousands of these alive in the
    heap at once.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    background: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: no longer pending: cancelled before it fired, or already fired.
    cancelled: bool = field(default=False, compare=False)


#: What both schedulers keep in their heaps.  ``seq`` is unique per
#: simulator, so comparing two entries never reaches the event.
Entry = Tuple[float, int, Event]


#: Recognized ``scheduler=`` values for :class:`Simulator`.
SCHEDULERS = ("heap", "calendar")


class CalendarQueue:
    """Calendar-queue priority queue over :class:`Event` (Brown 1988).

    Virtual time is divided into fixed-width *days*; day ``d`` covers
    ``[d*width, (d+1)*width)`` and hashes to bucket ``d % nbuckets``
    (one *year* = ``nbuckets`` days).  Each bucket is a small heap of
    ``(time, seq, event)`` entries, so same-day events — and days
    colliding a year apart — still pop in exact ``(time, seq)`` order.
    Day membership is always computed as ``int(event.time / width)``,
    the same expression push uses for the bucket index, so float
    rounding can never strand an event between a bucket and its day.

    Determinism: pops yield the exact global ``(time, seq)`` order (the
    scan visits days in order; within a day the bucket heap orders its
    entries; a fruitless full-year scan falls back to the true
    minimum over bucket heads and jumps the calendar there).  Resizes
    are triggered purely by the queue length and re-estimate the bucket
    width from the gaps between the earliest pending events — no wall
    clock and no randomness, so a given push/pop/cancel sequence always
    yields the same internal state.
    """

    __slots__ = ("_buckets", "_nbuckets", "_width", "_size", "_last", "_head")

    #: never shrink below this many buckets.
    MIN_BUCKETS = 16
    #: width estimation looks at the gaps among this many earliest events.
    SAMPLE = 64

    def __init__(self, *, width: float = 0.001, nbuckets: int = MIN_BUCKETS) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive: {width!r}")
        self._buckets: List[List[Entry]] = [[] for _ in range(nbuckets)]
        self._nbuckets = nbuckets
        self._width = width
        self._size = 0
        #: time of the last popped event — the scan starts at its day.
        self._last = 0.0
        #: memoized ``(bucket, head_entry)`` from the last search, so
        #: the peek-then-pop pattern of the run loop scans only once.
        self._head: Optional[tuple] = None

    def __len__(self) -> int:
        return self._size

    @property
    def width(self) -> float:
        """Current bucket width in virtual seconds."""
        return self._width

    @property
    def nbuckets(self) -> int:
        """Current bucket count (one year = nbuckets * width)."""
        return self._nbuckets

    def push(self, event: Event) -> None:
        if self._size >= self._nbuckets * 2:
            self._resize(self._nbuckets * 2)
        bucket = self._buckets[int(event.time / self._width) % self._nbuckets]
        entry = (event.time, event.seq, event)
        heappush(bucket, entry)
        self._size += 1
        head = self._head
        if head is not None and entry < head[1]:
            # The new event outranks the memoized head; since it also
            # outranks its own bucket's previous minimum it is now that
            # bucket's top, so the memo can be updated in place.
            self._head = (bucket, entry)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest *live* event, or None.

        Cancelled events are discarded on the way (the same lazy
        deletion the heap scheduler uses).
        """
        while self._size:
            head = self._head
            if head is not None:
                self._head = None
                bucket = head[0]
            else:
                if (
                    self._nbuckets > self.MIN_BUCKETS
                    and self._size < self._nbuckets // 4
                ):
                    self._resize(self._nbuckets // 2)
                    if not self._size:
                        break
                bucket = self._find()[0]
            self._last, _, event = heappop(bucket)
            self._size -= 1
            if not event.cancelled:
                return event
        return None

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it, or None.

        Discards cancelled events blocking the head, so a ``peek`` is
        always consistent with the ``pop`` that follows it — even if a
        resize (which purges cancelled events wholesale) runs between.
        The located head is memoized, so the run loop's peek-then-pop
        costs one bucket search, not two.
        """
        while self._size:
            head = self._head
            if head is None:
                head = self._head = self._find()
            event = head[1][2]
            if not event.cancelled:
                return event
            self._head = None
            heappop(head[0])
            self._size -= 1
            self._last = event.time
        return None

    def _find(self):
        """Locate the earliest entry; returns ``(bucket, entry)``.

        Scans days forward from the last popped time.  If a whole year
        passes without a due event (sparse far-future queue), jump the
        calendar straight to the true minimum over bucket heads.
        """
        width = self._width
        nbuckets = self._nbuckets
        buckets = self._buckets
        day = int(self._last / width)
        for _ in range(nbuckets):
            bucket = buckets[day % nbuckets]
            if bucket and int(bucket[0][0] / width) == day:
                return bucket, bucket[0]
            day += 1
        # Nothing due within a year of the cursor: the earliest bucket
        # head is the global minimum (heads are per-bucket minima and
        # entries order by (time, seq)).
        best = min(bucket[0] for bucket in buckets if bucket)
        return buckets[int(best[0] / width) % nbuckets], best

    def _resize(self, nbuckets: int) -> None:
        """Re-bucket every pending event into ``nbuckets`` buckets.

        Also purges cancelled events (the heap scheduler purges them
        lazily on pop; a resize is the calendar's natural amnesty) and
        re-estimates the bucket width as twice the mean gap between the
        earliest pending events, clamped to a sane floor — the classic
        calendar-queue heuristic, made deterministic by sorting.
        """
        entries = [
            entry
            for bucket in self._buckets
            for entry in bucket
            if not entry[2].cancelled
        ]
        entries.sort()
        sample = [entry[0] for entry in entries[: self.SAMPLE]]
        gaps = [
            later - earlier
            for earlier, later in zip(sample, sample[1:])
            if later > earlier
        ]
        if gaps:
            self._width = max(2.0 * sum(gaps) / len(gaps), 1e-9)
        self._nbuckets = nbuckets
        width = self._width
        buckets: List[List[Entry]] = [[] for _ in range(nbuckets)]
        for entry in entries:
            heappush(buckets[int(entry[0] / width) % nbuckets], entry)
        self._buckets = buckets
        self._size = len(entries)
        self._head = None


class Simulator:
    """Deterministic discrete-event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random streams.  Component code asks
        for named sub-streams via :meth:`rng` so that adding a new
        randomness consumer does not perturb existing ones.
    scheduler:
        ``"heap"`` (default, binary heap) or ``"calendar"`` (calendar
        queue).  Both pop in the exact same ``(time, seq)`` order, so
        runs are bit-identical either way; the calendar amortizes to
        O(1) per event on large steady workloads.
    """

    def __init__(self, seed: int = 0, *, scheduler: str = "heap") -> None:
        if scheduler not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}"
            )
        self._queue: List[Entry] = []
        self._calendar = CalendarQueue() if scheduler == "calendar" else None
        self.scheduler = scheduler
        self._seq = itertools.count()
        self._now = 0.0
        self._seed = seed
        self._rngs: dict[str, Any] = {}
        self._live_foreground = 0
        self.events_processed = 0
        self._dispatch_hook: Optional[Callable[[Event, float], None]] = None

    # ------------------------------------------------------------------
    # clock & randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def seed(self) -> int:
        """The seed this simulator was created with."""
        return self._seed

    def rng(self, stream: str):
        """Return a named, seeded ``random.Random`` sub-stream.

        The same ``(seed, stream)`` pair always yields the same sequence,
        independent of any other stream, so experiments are reproducible
        bit-for-bit across runs and code reorderings.
        """
        rng = self._rngs.get(stream)
        if rng is None:
            rng = self._rngs[stream] = random.Random(f"{self._seed}:{stream}")
        return rng

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        background: bool = False,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event` handle for :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        when = self._now + delay
        seq = next(self._seq)
        event = Event(when, seq, callback, background, label)
        if self._calendar is not None:
            self._calendar.push(event)
        else:
            heappush(self._queue, (when, seq, event))
        if not background:
            self._live_foreground += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        background: bool = False,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute virtual ``time`` (must be >= now)."""
        return self.schedule(
            time - self._now, callback, background=background, label=label
        )

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent, and a no-op
        on one that already fired)."""
        if event.cancelled:
            return
        event.cancelled = True
        if not event.background:
            self._live_foreground -= 1

    def pending_foreground(self) -> int:
        """Number of live foreground events still queued."""
        return self._live_foreground

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def set_dispatch_hook(
        self, hook: Optional[Callable[[Event, float], None]]
    ) -> None:
        """Install a wall-clock profiling hook around event dispatch.

        ``hook(event, wall_seconds)`` runs after every processed event;
        pass None to uninstall.  With no hook the per-event overhead is
        a single None check (see ``MetricsRegistry.profile_simulator``).
        """
        self._dispatch_hook = hook

    def step(self) -> bool:
        """Run the single next live event.  Returns False if queue is empty."""
        event = self._pop_live()
        if event is None:
            return False
        self._now = event.time
        # Spent: a late cancel() must not count it down a second time.
        event.cancelled = True
        if not event.background:
            self._live_foreground -= 1
        self.events_processed += 1
        hook = self._dispatch_hook
        if hook is None:
            event.callback()
        else:
            started = time.perf_counter()
            event.callback()
            hook(event, time.perf_counter() - started)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run events until the queue empties or virtual time passes ``until``.

        Returns the virtual time at which the loop stopped.
        """
        processed = 0
        while True:
            head = self._peek_live()
            if head is None:
                break
            if until is not None and head.time > until:
                break
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely livelock"
                )
            self.step()
            processed += 1
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_settled(
        self,
        *,
        horizon: float = 1e6,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until no *foreground* event remains (routing convergence).

        Background events due before the settling point run in order;
        later ones stay queued.  Raises :class:`SimulationError` if the
        horizon or event budget is hit first — that indicates the
        protocol under test is livelocked (e.g. a persistent route
        oscillation, cf. BGP "wedgies").
        """
        processed = 0
        while self._live_foreground > 0:
            head = self._peek_live()
            assert head is not None, "foreground counter out of sync"
            if head.time > horizon:
                raise SimulationError(
                    f"not settled by horizon t={horizon}: {head.label!r} pending"
                )
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely livelock"
                )
            self.step()
            processed += 1
        return self._now

    def _pop_live(self) -> Optional[Event]:
        calendar = self._calendar
        if calendar is not None:
            return calendar.pop()
        queue = self._queue
        while queue:
            event = heappop(queue)[2]
            if not event.cancelled:
                return event
        return None

    def _peek_live(self) -> Optional[Event]:
        calendar = self._calendar
        if calendar is not None:
            return calendar.peek()
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        return queue[0][2] if queue else None
