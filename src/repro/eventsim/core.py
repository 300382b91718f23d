"""Discrete-event simulation kernel.

The kernel replaces Mininet's real-time execution with deterministic
virtual time.  Everything in the emulation framework — link propagation,
BGP timers, controller debounce delays, probe streams — is driven by a
single :class:`Simulator` event loop.

Events are classified as *foreground* (work that can still change routing
state: message deliveries, MRAI expirations, controller recomputations)
or *background* (periodic housekeeping that never changes routing state
by itself: probe transmissions, collector flushes).  The
distinction is what lets :meth:`Simulator.run_until_settled` detect
routing convergence exactly: the network has converged when no foreground
event remains in the queue.

The pending set is one binary heap (``heapq``) of events plus one FIFO
lane per fixed delay (:meth:`Simulator.fifo_lane`).  Each event is its
own entry: a ``list`` ``[time, seq, ...]`` that the C heap orders by
``(time, seq)`` without entering Python.  ``seq`` is unique, so no
comparison reaches the callback slot.  A lane holds the events scheduled
through it at ``now + delay``; with the delay fixed, ``(time, seq)``
never decreases along it, so a plain deque is already in pop order and
an event costs an append and a popleft instead of a heap push and pop.
The next event is the least ``(time, seq)`` among the heap head and the
lane heads.  Events pop in exact ``(time, seq)`` order — same-time
events run in scheduling order, whichever structure holds them — which
is what makes a run a function of its seed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import deque
from functools import partial
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from .bus import InstrumentationBus

__all__ = ["Event", "FifoLane", "Simulator", "SimulationError"]


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


class FifoLane:
    """Foreground events at one fixed delay, kept in a deque.

    Every event scheduled here fires at ``now + delay`` and takes the
    next ``seq``.  The clock never goes back, so ``(time, seq)`` never
    decreases along the lane: appending keeps it in pop order.  The
    events are ordinary :class:`Event` handles — same layout, same
    ``seq`` counter, counted as pending foreground, cancelled through
    :meth:`Simulator.cancel` — so a run pops exactly what it would pop
    had every one of them gone through :meth:`Simulator.schedule`.
    Made by :meth:`Simulator.fifo_lane`, one per distinct delay.
    """

    __slots__ = ("_sim", "delay", "_events")

    def __init__(self, sim: "Simulator", delay: float) -> None:
        self._sim = sim
        #: seconds from scheduling to firing, for every event here.
        self.delay = delay
        self._events: Deque[Event] = deque()

    def schedule(
        self, callback: Callable[[], None], *, label: str = ""
    ) -> Event:
        """Schedule foreground ``callback`` to run ``delay`` seconds from
        now.  Returns the :class:`Event` handle for
        :meth:`Simulator.cancel`."""
        sim = self._sim
        event = Event(
            (sim._now + self.delay, next(sim._seq), callback, False, label,
             False)
        )
        self._events.append(event)
        sim._live_foreground += 1
        return event


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
        self._heap_pop = partial(heappop, self._queue)
        self._lanes: Dict[float, FifoLane] = {}
        #: each lane's deque and its popleft, in creation order.
        self._lane_heads: List[Tuple[Deque[Event], Callable[[], Event]]] = []
        #: how to pop the event :meth:`_peek_live` just found; the step
        #: right after it takes it, so the heads are scanned once.
        self._next_pop: Optional[Callable[[], Event]] = None
        self._seq = itertools.count()
        self._now = 0.0
        self._seed = seed
        self._rngs: dict[str, Any] = {}
        self._serials: dict[str, Iterator[int]] = {}
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

    def serial(self, stream: str) -> Iterator[int]:
        """Return a named serial-number stream: 1, 2, 3, ...

        Private to this simulator, like :meth:`rng`'s streams, so the
        ids a run hands out (``BGPUpdate.update_id``) depend only on the
        run, not on what ran before it in the same process.
        """
        serial = self._serials.get(stream)
        if serial is None:
            serial = self._serials[stream] = itertools.count(1)
        return serial

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

    def fifo_lane(self, delay: float) -> FifoLane:
        """The :class:`FifoLane` for ``delay`` (one per distinct delay).

        Use it for foreground events that are always scheduled the same
        fixed delay ahead; they pop in the same order as through
        :meth:`schedule`, at O(1) each.
        """
        lane = self._lanes.get(delay)
        if lane is None:
            if not delay >= 0:
                raise SimulationError(f"negative delay: {delay!r}")
            lane = self._lanes[delay] = FifoLane(self, delay)
            events = lane._events
            self._lane_heads.append((events, events.popleft))
        return lane

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

    def close(self) -> None:
        """End of the simulator's life: drop every pending event, lane
        and hook, and close the bus (idempotent).

        A pending event's callback is how the simulator reaches the
        nodes, sessions and timers that reach it back, and how a timer
        reaches the event it armed; blanking it cuts both.  Afterwards
        the simulator is a leaf of its trial's object graph.  Nothing
        can run on it again.
        """
        for event in self._queue:
            event[2] = None
        self._queue.clear()
        for events, _ in self._lane_heads:
            for event in events:
                event[2] = None
            events.clear()
        self._lanes.clear()
        self._lane_heads.clear()
        self._next_pop = None
        self._dispatch_hook = None
        self.bus.close()

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
        """Run the single next live event.  Returns False if queue is empty.

        The one per-event dispatch: :meth:`run` and
        :meth:`run_until_settled` call it once per event, after their
        loop found the event, so a wrapper around it sees every event.
        """
        pop = self._next_pop
        if pop is None:
            if self._peek_live() is None:
                return False
            pop = self._next_pop
        self._next_pop = None
        event = pop()
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
        limit = math.inf if until is None else until
        head = self._loop(max_events, limit, False)
        if head is not None and head[0] <= limit:
            raise SimulationError(
                f"exceeded max_events={max_events}; likely livelock"
            )
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
        head = self._loop(max_events, horizon, True)
        if self._live_foreground > 0:
            if head is None:
                raise SimulationError(
                    f"foreground counter out of sync: "
                    f"{self._live_foreground} counted, none queued"
                )
            if head[0] > horizon:
                raise SimulationError(
                    f"not settled by horizon t={horizon}: {head[4]!r} pending"
                )
            raise SimulationError(
                f"exceeded max_events={max_events}; likely livelock"
            )
        return self._now

    def _loop(
        self, max_events: int, until: float, settle: bool
    ) -> Optional[Event]:
        """The one loop behind :meth:`run` and :meth:`run_until_settled`.

        Steps while the next live event is due by ``until`` and fewer
        than ``max_events`` ran, and with ``settle`` only while a
        foreground event is pending.  Returns the live event it stopped
        at (None: the queue, or the foreground, ran out).
        """
        peek = self._peek_live
        step = self.step
        processed = 0
        while not settle or self._live_foreground > 0:
            head = peek()
            if head is None or head[0] > until or processed >= max_events:
                self._next_pop = None
                return head
            step()
            processed += 1
        return None

    def _peek_live(self) -> Optional[Event]:
        """The next live event: the least ``(time, seq)`` among the heap
        head and the lane heads, spent or cancelled heads dropped on the
        way.  Remembers where it lives for the :meth:`step` that follows
        (callers that do not step must reset ``_next_pop``)."""
        queue = self._queue
        while queue and queue[0][5]:
            heappop(queue)
        if queue:
            head, pop = queue[0], self._heap_pop
        else:
            head = pop = None
        for events, popleft in self._lane_heads:
            while events and events[0][5]:
                popleft()
            if events:
                first = events[0]
                if head is None or first < head:
                    head, pop = first, popleft
        self._next_pop = pop
        return head
