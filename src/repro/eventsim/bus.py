"""Streaming instrumentation bus — the framework's logging backbone.

Each :class:`~repro.eventsim.core.Simulator` owns exactly one bus,
``sim.bus``, and every component built on that simulator publishes
typed :class:`TraceRecord` events on it instead of appending to a log
directly; subscribers (the span tracker, a :class:`RecordDigest`, a
list's ``append`` in a test or an example) each receive exactly the
records they asked for.  Nothing retains records by default: each
analysis is a fold over the stream, subscribed for the span of the run
it reads, so a run keeps no trace memory while online consumers compute
in O(1) per record what once took a scan of a retained trace.

Records carry a dotted ``category`` (``bgp.update.rx``, ``fib.change``,
``controller.recompute`` ...), the node name, and a free-form payload
dict.  The two category sets every convergence measurement reads are
declared here, once: :data:`ROUTE_AFFECTING` (the last such record after
an injected event is the convergence instant) and
:data:`STATE_CHANGING` (the last actual routing-state change).

Subscriptions take an optional category filter (dotted-prefix matching,
same convention as :meth:`TraceRecord.matches`) and receive every
matching record.  The bus itself maintains, in O(1) per record and
regardless of who is subscribed, the two pieces of state every
measurement needs: per-category record counts
(:attr:`InstrumentationBus.counts`) and the virtual time of each
category's last record (:attr:`InstrumentationBus.last_seen`).  A
:class:`~repro.framework.convergence.MeasurementWindow` reads those
tables; it does not subscribe, so an unobserved run has no subscriber
at all.

Lazy publishing (:meth:`InstrumentationBus.record_lazy`): hot emitters
hand the bus a *payload thunk* instead of a built dict.  The bus first
checks — against its compiled per-category route — whether anything will
actually take this record (a subscriber whose filter matches).  Only
then does the thunk run and a :class:`TraceRecord` get built; otherwise
the cost of the call is the unconditional count increment, the
``last_seen`` stamp and a route lookup — a run with no subscriber
evaluates no thunk at all.
The contract for subscriber authors: a record's ``data`` dict is built
at publish time whenever *any* taker exists, so every taker of the same
occurrence sees the same payload, and payloads always reflect state at
the publish instant — laziness is never observable, only cheaper.
Ownership: a payload belongs to its occurrence.  Every taker is handed
the one dict (parts of it may be shared wider still — the tx and rx
records of an UPDATE share its rendered lists), so takers read it and
never write; whoever needs more keys copies first
(``SpanTracker.annotate_last``).  Publishers build it in JSON shape —
lists, not tuples — so retaining or serializing it converts nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "TraceRecord",
    "Subscription",
    "InstrumentationBus",
    "RecordDigest",
    "ROUTE_AFFECTING",
    "STATE_CHANGING",
]

#: Categories that indicate routing state is still in flux.  The
#: convergence time of an injected event is the timestamp of the last
#: record in one of these categories (see ``framework.convergence``).
ROUTE_AFFECTING = frozenset(
    {
        "bgp.update.tx",
        "bgp.update.rx",
        "bgp.decision",
        "bgp.originate",
        "bgp.withdraw",
        "fib.change",
        "controller.recompute",
        "controller.flow_install",
        "controller.advertise",
    }
)

#: Categories that represent an actual routing-state change, as opposed
#: to update *activity* (which includes MRAI-paced re-advertisements of
#: decisions already made).  A subset of :data:`ROUTE_AFFECTING`, so the
#: last state change never follows the last route-affecting record.
STATE_CHANGING = frozenset(
    {"bgp.decision", "fib.change", "bgp.originate", "bgp.withdraw"}
)

#: Shared empty payload for records published without data.  Never
#: mutated — ``TraceRecord`` consumers only read ``data``.
_EMPTY_DATA: dict = {}


class TraceRecord(NamedTuple):
    """One timestamped instrumentation record.

    A ``NamedTuple`` rather than a dataclass because construction is on
    the per-simulated-message hot path: the C-level tuple constructor is
    roughly twice as fast as a frozen dataclass ``__init__``.  Field
    order (``time, category, node, data``) is part of the API — existing
    code constructs records positionally.
    """

    time: float
    category: str
    node: str
    data: dict = _EMPTY_DATA

    def matches(self, prefix: str) -> bool:
        """True if this record's category equals or is nested under ``prefix``."""
        return _matches(self.category, (prefix,))


def _matches(category: str, prefixes) -> bool:
    """The bus's one category rule: ``category`` equals one of the
    dotted ``prefixes`` or nests under it."""
    for prefix in prefixes:
        if category == prefix or category.startswith(prefix + "."):
            return True
    return False


def _count(counts: Dict[str, int], category: str) -> int:
    """Total of the per-category ``counts`` whose category equals or
    nests under ``category``."""
    return sum(n for cat, n in counts.items() if _matches(cat, (category,)))


@dataclass
class Subscription:
    """One subscriber's standing request for records.

    ``categories`` is None for "everything" or an iterable of dotted
    prefixes; a record is delivered when its category equals a prefix or
    nests under it.
    """

    callback: Callable[[TraceRecord], None]
    categories: Optional[Tuple[str, ...]] = None
    name: str = ""


class InstrumentationBus:
    """Publish/subscribe hub for all emulation instrumentation.

    Components publish via :meth:`record` (eager payload) or
    :meth:`record_lazy` (payload thunk); the per-category dispatch route
    is compiled and cached, so the steady-state cost of a record is one
    dict lookup plus one callback per interested subscriber — or, on the
    lazy path with no takers, nothing beyond the count and the stamp.
    Per-category totals (:attr:`counts`) and last-record times
    (:attr:`last_seen`) are maintained unconditionally — they are the
    O(1) backbone of activity counting (update/decision/FIB deltas) and
    convergence timing, and survive even a zero-subscriber, zero-trace
    run.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._subscriptions: List[Subscription] = []
        #: total records published per exact category; never reset.
        self.counts: Dict[str, int] = {}
        #: virtual time of the last record published per exact category.
        self.last_seen: Dict[str, float] = {}
        #: category -> compiled ``(eager, callbacks)`` route (see
        #: :meth:`_compile`).
        self._routes: Dict[str, tuple] = {}
        #: the causal context slot: the span tracker
        #: (:class:`repro.obs.SpanTracker`) whose ``current`` context
        #: components read and swap, or None.  Records reach the tracker
        #: through its subscription, not through this attribute.
        self.obs = None

    @property
    def records_published(self) -> int:
        """Total records ever published (derived from the counts)."""
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[TraceRecord], None],
        *,
        categories=None,
        sample: int = 1,
        name: str = "",
    ) -> Subscription:
        """Attach a subscriber; returns the handle for :meth:`unsubscribe`.

        ``categories``: None (everything) or an iterable of dotted
        prefixes.  Every matching record is delivered.  ``sample`` only
        accepts 1: the ledger benchmark's frozen tracer still passes
        ``sample=sample`` through its wrapper, and the keyword goes
        together with that line.
        """
        if sample != 1:
            raise ValueError(
                f"the bus delivers every matching record: sample={sample!r}"
            )
        subscription = Subscription(
            callback=callback,
            categories=tuple(sorted(categories)) if categories is not None else None,
            name=name,
        )
        self._subscriptions.append(subscription)
        self._routes.clear()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscriber (idempotent)."""
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            return
        self._routes.clear()

    @property
    def subscriptions(self) -> List[Subscription]:
        """The live subscriptions (read-only view)."""
        return list(self._subscriptions)

    def close(self) -> None:
        """Detach every subscriber and the causal slot and let go of
        the simulator (:meth:`Simulator.close` calls it).  The counts
        and last-seen times stay readable; nothing can publish again."""
        self._subscriptions.clear()
        self._routes.clear()
        self.obs = None
        self._sim = None

    # ------------------------------------------------------------------
    # route compilation
    # ------------------------------------------------------------------
    def _compile(self, category: str) -> tuple:
        """Build the dispatch route for one category.

        Returns ``(eager, callbacks)``:

        - ``eager`` — a prebound closure handling one occurrence end to
          end (record construction, then delivery), or None when no
          subscription matches — the lazy publishing path skips the
          payload thunk exactly when this is None;
        - ``callbacks`` — the callbacks of the subscriptions whose filter
          matches, in subscribe order (delivery order is part of the
          determinism contract).
        """
        callbacks = tuple(
            s.callback for s in self._subscriptions
            if s.categories is None or _matches(category, s.categories)
        )
        eager: Optional[Callable[[str, dict], None]]
        if not callbacks:
            eager = None
        elif len(callbacks) > 1:

            def eager(
                node, data,
                _cat=category, _sim=self._sim, _new=tuple.__new__,
                _cls=TraceRecord, _callbacks=callbacks,
            ):
                rec = _new(_cls, (_sim._now, _cat, node, data))
                for callback in _callbacks:
                    callback(rec)

        else:
            # The common shape: one subscriber — e.g. the span
            # tracker, or a list's bare ``append``.

            def eager(
                node, data,
                _cat=category, _sim=self._sim, _new=tuple.__new__,
                _cls=TraceRecord, _callback=callbacks[0],
            ):
                _callback(_new(_cls, (_sim._now, _cat, node, data)))

        route = (eager, callbacks)
        self._routes[category] = route
        return route

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def record(self, category: str, node: str, **data: Any) -> None:
        """Publish a record stamped with the current virtual time."""
        counts = self.counts
        counts[category] = counts.get(category, 0) + 1
        self.last_seen[category] = self._sim._now
        route = self._routes.get(category)
        if route is None:
            route = self._compile(category)
        eager = route[0]
        if eager is not None:
            eager(node, data)

    def record_lazy(
        self, category: str, node: str, thunk: Callable[[], dict]
    ) -> None:
        """Publish with a deferred payload: ``thunk()`` builds the data
        dict, and runs only when a taker exists for this occurrence.

        Counting is unchanged — every call increments :attr:`counts`
        and stamps :attr:`last_seen` exactly like :meth:`record` — so
        measurements and digests never depend on whether anyone retained
        the payload.
        """
        counts = self.counts
        counts[category] = counts.get(category, 0) + 1
        self.last_seen[category] = self._sim._now
        route = self._routes.get(category)
        if route is None:
            route = self._compile(category)
        eager = route[0]
        if eager is not None:
            eager(node, thunk())

    def publish(self, record: TraceRecord) -> None:
        """Publish a pre-built record (replay / testing entry point)."""
        category = record.category
        counts = self.counts
        counts[category] = counts.get(category, 0) + 1
        self.last_seen[category] = record.time
        route = self._routes.get(category)
        if route is None:
            route = self._compile(category)
        for callback in route[1]:
            callback(record)

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def count(self, category: str) -> int:
        """Total records whose category equals or nests under ``category``."""
        return _count(self.counts, category)

    def last_time(self, categories) -> Optional[float]:
        """Virtual time of the last record whose category equals or
        nests under any of ``categories``; None if there was none."""
        return max(
            (
                time for category, time in self.last_seen.items()
                if _matches(category, categories)
            ),
            default=None,
        )

    def __repr__(self) -> str:
        return (
            f"<InstrumentationBus subscribers={len(self._subscriptions)} "
            f"published={self.records_published}>"
        )


class RecordDigest:
    """A running sha256 over every record published on ``bus`` from
    now on: ``f"{time!r}|{category}|{node}\\n"`` per record, exact
    float reprs, so equal digests mean bit-identical runs.

    Subscribe it between ``Experiment.build()`` (which publishes
    nothing) and ``start()`` to fold the whole run; it keeps no record.
    """

    def __init__(self, bus: InstrumentationBus) -> None:
        self._hasher = hashlib.sha256()
        bus.subscribe(self._take, name="digest")

    def _take(self, record: TraceRecord) -> None:
        self._hasher.update(
            f"{record.time!r}|{record.category}|{record.node}\n".encode()
        )

    def hexdigest(self) -> str:
        """The digest of the records taken so far."""
        return self._hasher.hexdigest()
