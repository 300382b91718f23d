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

The pending set is one binary heap (``heapq``) of events, and each
event is its own heap entry: a ``list`` ``[time, seq, ...]`` that the C
heap orders by ``(time, seq)`` without entering Python.  ``seq`` is
unique, so no comparison reaches the callback slot.  Events pop in exact
``(time, seq)`` order — same-time events run in scheduling order — which
is what makes a run a function of its seed.
"""

from __future__ import annotations

import itertools
import random
import time
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, List, Optional

from .bus import InstrumentationBus

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (negative delays) or livelock detection."""


class Event(list):
    """A scheduled callback, and its own heap entry.

    The layout is ``[time, seq, callback, background, label, cancelled]``.
    Lists compare item by item in C, and ``seq`` is a monotonically
    increasing, per-simulator unique tie-breaker, so two events order by
    ``(time, seq)`` and a comparison never reaches the callback slot.
    Same-time events therefore run in scheduling order, which keeps runs
    deterministic.  One object per pending event, with no ``__dict__``,
    because dense-graph runs keep hundreds of thousands of them alive in
    the heap at once.  The fields read through properties; only the
    kernel writes (``cancelled``, through :meth:`Simulator.cancel`, so
    its foreground bookkeeping stays exact).
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Virtual time the event fires at.")
    seq = property(itemgetter(1), doc="Scheduling order (unique tie-breaker).")
    callback = property(itemgetter(2), doc="What runs when it fires.")
    background = property(
        itemgetter(3), doc="Housekeeping that never changes routing state."
    )
    label = property(itemgetter(4), doc="Free-text name for diagnostics.")
    cancelled = property(
        itemgetter(5),
        doc="No longer pending: cancelled before it fired, or already fired.",
    )

    def __repr__(self) -> str:
        return f"<Event t={self[0]!r} seq={self[1]} {self[4]!r}>"


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
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._seed = seed
        self._rngs: dict[str, Any] = {}
        self._live_foreground = 0
        self.events_processed = 0
        self._dispatch_hook: Optional[Callable[[Event, float], None]] = None
        #: the one instrumentation bus every component on this simulator
        #: publishes on.
        self.bus = InstrumentationBus(self)

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
        event = Event(
            (self._now + delay, next(self._seq), callback, background, label,
             False)
        )
        heappush(self._queue, event)
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
        if event[5]:  # cancelled
            return
        event[5] = True
        if not event[3]:  # background
            self._live_foreground -= 1

    def pending_foreground(self) -> int:
        """Number of live foreground events still queued."""
        return self._live_foreground

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def set_dispatch_hook(
        self, hook: Optional[Callable[[Event, float], None]]
    ) -> Optional[Callable[[Event, float], None]]:
        """Install a wall-clock hook around event dispatch and return
        the one it replaces (so a new hook can chain it).

        ``hook(event, wall_seconds)`` runs after every processed event;
        pass None to uninstall.  With no hook the per-event overhead is
        a single None check.  The per-layer wall-time reading of a
        metrics-on trial (:func:`repro.eventsim.metrics.time_by_layer`,
        ``resources["wall_by_layer_s"]``) is one such hook.
        """
        previous, self._dispatch_hook = self._dispatch_hook, hook
        return previous

    def step(self) -> bool:
        """Run the single next live event.  Returns False if queue is empty."""
        queue = self._queue
        while queue:
            event = heappop(queue)
            if not event[5]:  # cancelled
                break
        else:
            return False
        self._now = event[0]
        # Spent: a late cancel() must not count it down a second time.
        event[5] = True
        if not event[3]:  # background
            self._live_foreground -= 1
        self.events_processed += 1
        hook = self._dispatch_hook
        if hook is None:
            event[2]()
        else:
            started = time.perf_counter()
            event[2]()
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
            if until is not None and head[0] > until:
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
            if head[0] > horizon:
                raise SimulationError(
                    f"not settled by horizon t={horizon}: {head[4]!r} pending"
                )
            if processed >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely livelock"
                )
            self.step()
            processed += 1
        return self._now

    def _peek_live(self) -> Optional[Event]:
        queue = self._queue
        while queue and queue[0][5]:
            heappop(queue)
        return queue[0] if queue else None
