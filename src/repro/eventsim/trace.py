"""Trace capture — one subscriber on the instrumentation bus.

Historically the ``TraceLog`` *was* the instrumentation layer: every
component appended frozen records to one unbounded list, and the
analysis package re-scanned it after the run.  Publishing now happens on
the simulator's :class:`~repro.eventsim.bus.InstrumentationBus`
(``sim.bus``); the trace log is just the subscriber that retains records
for offline "log file analysis" (``repro.analysis``).  Two capture
controls serve large runs: ``categories`` (a dotted-prefix filter;
retain only matching records) and ``capture=False`` (retain nothing).

The query API (``filter``/``last_time``) reads the retained records.
Per-category *counts* are the bus's own (``bus.counts``/``bus.count``):
they reflect everything published — even with capture disabled or
filtered — because the bus maintains them in O(1) independent of any
subscriber.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from .bus import (
    ROUTE_AFFECTING,
    InstrumentationBus,
    Subscription,
    TraceRecord,
    _matches,
)

__all__ = ["TraceRecord", "TraceLog", "ROUTE_AFFECTING"]


class TraceLog:
    """Record-retaining subscriber with category filters.

    Live observers subscribe to :attr:`bus` directly
    (:meth:`~repro.eventsim.bus.InstrumentationBus.subscribe`).
    """

    def __init__(
        self,
        bus: InstrumentationBus,
        *,
        categories=None,
        capture: bool = True,
    ) -> None:
        self.bus = bus
        self._records: deque = deque()
        self._enabled = capture
        self.categories = (
            tuple(sorted(categories)) if categories is not None else None
        )
        # A disabled trace does not subscribe at all: with no
        # subscription the bus's lazy publishing path skips building
        # records entirely, which is what makes ``trace_level="off"``
        # runs approach the bare counting floor.  An enabled one hands
        # the bus the deque's C-level append — no python frame per
        # retained record.
        self._subscription: Optional[Subscription] = None
        if capture:
            self._subscription = self.bus.subscribe(
                self._records.append, categories=self.categories,
                name="trace",
            )

    def detach(self) -> None:
        """Stop receiving records from the bus entirely."""
        if self._subscription is not None:
            self.bus.unsubscribe(self._subscription)
            self._subscription = None

    # ------------------------------------------------------------------
    # retained records
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> list:
        """The retained records, oldest first."""
        return list(self._records)

    # ------------------------------------------------------------------
    # queries (the "log file analysis" entry points)
    # ------------------------------------------------------------------
    def filter(
        self,
        category: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> list:
        """Records matching all given criteria (category matches by prefix)."""
        out = []
        for rec in self._records:
            if category is not None and not rec.matches(category):
                continue
            if node is not None and rec.node != node:
                continue
            if since is not None and rec.time < since:
                continue
            if until is not None and rec.time > until:
                continue
            out.append(rec)
        return out

    def last_time(
        self, categories=ROUTE_AFFECTING, since: float = 0.0
    ) -> Optional[float]:
        """Timestamp of the last record in ``categories`` at/after ``since``.

        A member of ``categories`` matches its own category and everything
        nested under it — the bus's one rule, as in :meth:`filter`,
        ``bus.count`` and ``bus.last_time``.
        """
        latest: Optional[float] = None
        for rec in self._records:
            if rec.time >= since and _matches(rec.category, categories):
                if latest is None or rec.time > latest:
                    latest = rec.time
        return latest

    def __repr__(self) -> str:
        return (
            f"<TraceLog records={len(self._records)} "
            f"capture={self._enabled}>"
        )
