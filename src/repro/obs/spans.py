"""Causal provenance spans — message lineage for every routing change.

The instrumentation bus answers *what* happened (counts, records); this
module answers *why*.  A :class:`SpanTracker` subscribed to a bus turns
every route-affecting record into a :class:`Span` carrying a
``(cause_id, parent_id)`` pair, where ``cause_id`` names the root event
(an originated announcement or withdrawal, a link failure, a router
crash) whose causal tree the span belongs to.  Components
propagate the *current* causal context explicitly:

- a sender stamps its context onto each in-flight message
  (``message._prov``), and the receiving node restores it on delivery;
- deferred work (MRAI-batched sends, queued update processing, debounced
  controller recomputes) captures the context at enqueue time and
  restores it when the deferred event fires.

The tracker is deliberately passive: it never schedules events, never
touches the simulator RNG, and never publishes bus records, so enabling
it cannot perturb a run — convergence results are bit-identical with
spans on or off.  The bus's ``obs`` slot holds the tracker whose context
components read and swap; when it is None, context propagation costs
one attribute load and a ``None`` check per site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..eventsim.bus import ROUTE_AFFECTING, TraceRecord

__all__ = [
    "Span",
    "SpanTracker",
    "SPAN_CATEGORIES",
    "activation",
    "last_span_activation",
]

#: Context handle threaded through components: ``(cause_id, span_id)``.
Context = Tuple[int, int]

#: Categories that become spans automatically when published on a bus
#: with a tracker subscribed.  Exactly the route-affecting set — one span
#: per route-affecting record is the invariant that makes DAG-derived
#: convergence instants match the streaming MeasurementWindow.
SPAN_CATEGORIES = frozenset(ROUTE_AFFECTING)


@dataclass(slots=True)
class Span:
    """One causally attributed event.

    ``parent_id`` is ``None`` for root causes; ``cause_id`` equals the
    root span's id for every span in that root's tree (a root is its own
    cause).  ``t_start``/``t_end`` coincide for instantaneous events;
    spans covering an interval (an MRAI-gated send measured from the
    instant its prefix went dirty) keep them distinct.  ``data`` is the
    occurrence's own payload dict — the one the bus hands every taker —
    so it is read, never written (:meth:`SpanTracker.annotate_last`
    replaces it with an extended copy).
    """

    span_id: int
    parent_id: Optional[int]
    cause_id: int
    category: str
    node: str
    t_start: float
    t_end: float
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (cache payloads, JSONL export).

        ``data`` goes out as published: publishers build payloads in
        JSON shape (lists, never tuples), so a snapshot equals its
        serialize → deserialize round trip without a conversion pass
        (checked over every trial family by
        ``tests/experiments/test_batch_trial.py``)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "cause_id": self.cause_id,
            "category": self.category,
            "node": self.node,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "data": self.data,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Span":
        return Span(
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            cause_id=payload["cause_id"],
            category=payload["category"],
            node=payload["node"],
            t_start=payload["t_start"],
            t_end=payload["t_end"],
            data=payload.get("data") or {},
        )


class SpanTracker:
    """Collects spans and carries the current causal context.

    Attach with ``Network.enable_spans()``, which subscribes
    :meth:`on_record` to :data:`SPAN_CATEGORIES` and sets ``bus.obs``
    to the tracker: every such record becomes a span parented under
    :attr:`current`.  A record arriving with no current context
    starts a new root cause — originations, withdrawals and fault
    injections are roots by construction because they fire from
    scenario code, outside any message context.

    Span ids are a plain monotonic counter (starting at 1), so a given
    seed yields the same ids on every run.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        #: context of the causal tree being extended right now, or None.
        self.current: Optional[Context] = None
        #: context of the most recently created span (for hooks that
        #: need to activate the span a ``bus.record`` call just made).
        self.last_ctx: Optional[Context] = None
        self._next_id = 1

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    def on_record(self, record: TraceRecord) -> None:
        """Subscription callback: the record becomes a span holding the
        record's ``data`` itself."""
        time = record.time
        self._emit(record.category, record.node, time, time, record.data)

    def emit(
        self,
        category: str,
        node: str,
        *,
        t_start: Optional[float] = None,
        **data: Any,
    ) -> Context:
        """Record an explicit span under the current context.

        Used for events that are causes but not bus records (link
        up/down, router crash/restart) and for interval spans whose
        ``t_start`` predates the emission instant.
        """
        now = self.sim.now
        start = now if t_start is None else t_start
        return self._emit(category, node, start, now, data)

    def emit_root(self, category: str, node: str, **data: Any) -> Context:
        """Record a span that starts a new causal tree unconditionally."""
        prev, self.current = self.current, None
        try:
            return self._emit(category, node, self.sim.now, self.sim.now, data)
        finally:
            self.current = prev

    def _emit(
        self,
        category: str,
        node: str,
        t_start: float,
        t_end: float,
        data: Dict[str, Any],
    ) -> Context:
        span_id = self._next_id
        self._next_id = span_id + 1
        if self.current is None:
            cause_id, parent_id = span_id, None
        else:
            cause_id, parent_id = self.current[0], self.current[1]
        self.spans.append(
            Span(span_id, parent_id, cause_id, category, node,
                 t_start, t_end, data)
        )
        self.last_ctx = (cause_id, span_id)
        return self.last_ctx

    def annotate_last(
        self, *, t_start: Optional[float] = None, **extra: Any
    ) -> None:
        """Attach extra data to the most recently created span.

        ``t_start`` stretches the span's start earlier (never later) —
        used for sends that waited in an MRAI gate.  The span's payload
        is the published record's, so ``extra`` goes into a copy: an
        annotation never shows up in another taker's record.
        """
        if not self.spans:
            return
        span = self.spans[-1]
        if t_start is not None and t_start < span.t_start:
            span.t_start = t_start
        span.data = {**span.data, **extra}

    # ------------------------------------------------------------------
    # context management
    # ------------------------------------------------------------------
    def swap(self, ctx: Optional[Context]) -> Optional[Context]:
        """Make ``ctx`` current; returns the previous context to restore."""
        prev = self.current
        self.current = ctx
        return prev

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def snapshot(self) -> List[Dict[str, Any]]:
        """All spans as JSON-ready dicts (RunRecord / cache payload)."""
        return [span.to_dict() for span in self.spans]

    def __repr__(self) -> str:
        return (
            f"<SpanTracker spans={len(self.spans)} "
            f"current={self.current} next_id={self._next_id}>"
        )


class _NullActivation:
    """No-op context manager for the tracker-not-attached path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_ACTIVATION = _NullActivation()


class _Activation:
    __slots__ = ("obs", "ctx", "prev")

    def __init__(self, obs: SpanTracker, ctx: Optional[Context]) -> None:
        self.obs = obs
        self.ctx = ctx

    def __enter__(self):
        self.prev = self.obs.swap(self.ctx)
        return self.ctx

    def __exit__(self, *exc):
        self.obs.swap(self.prev)
        return False


def activation(obs: Optional[SpanTracker], ctx: Optional[Context]):
    """``with activation(bus.obs, ctx):`` — make ``ctx`` the current
    causal context for the block; a no-op when no tracker is attached."""
    return _NULL_ACTIVATION if obs is None else _Activation(obs, ctx)


def last_span_activation(obs: Optional[SpanTracker]):
    """Activate the span the preceding ``bus.record`` call just created.

    Only valid immediately after publishing a record in a spanned
    category (the route-affecting set); no-op when no tracker attached.
    """
    return _NULL_ACTIVATION if obs is None else _Activation(obs, obs.last_ctx)
