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

The pending set is one binary heap (``heapq``) of ``(time, seq, event)``
tuples: ``seq`` is unique, so ``heapq`` orders them in C and never calls
``Event.__lt__`` (sixteen Python-level comparisons per event at 29k
pending).  Events pop in exact ``(time, seq)`` order — same-time events
run in scheduling order — which is what makes a run a function of its
seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (negative delays) or livelock detection."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    tie-breaker so same-time events run in scheduling order, which keeps
    runs deterministic.  The queue does not call this ordering: it holds
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


#: What the queue holds.  ``seq`` is unique per simulator, so comparing
#: two entries never reaches the event.
Entry = Tuple[float, int, Event]


class Simulator:
    """Deterministic discrete-event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random streams.  Component code asks
        for named sub-streams via :meth:`rng` so that adding a new
        randomness consumer does not perturb existing ones.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: List[Entry] = []
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
        queue = self._queue
        while queue:
            event = heappop(queue)[2]
            if not event.cancelled:
                return event
        return None

    def _peek_live(self) -> Optional[Event]:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        return queue[0][2] if queue else None
