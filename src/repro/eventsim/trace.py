"""Bounded trace capture — one subscriber on the instrumentation bus.

Historically the ``TraceLog`` *was* the instrumentation layer: every
component appended frozen records to one unbounded list, and the
analysis package re-scanned it after the run.  Publishing now happens on
the :class:`~repro.eventsim.bus.InstrumentationBus`; the trace log is
just the subscriber that retains records for offline "log file
analysis" (``repro.analysis``), with three capture controls for large
runs:

- ``categories`` — dotted-prefix filter; retain only matching records;
- ``max_records`` — ring buffer bound; old records fall off the front;
- ``sample`` — keep every Nth matching record.

The full query API (``filter``/``last_time``/``count``) is unchanged.
Per-category *counts* always reflect everything published on the bus —
even with capture disabled or filtered — because the bus maintains them
in O(1) independent of any subscriber.

For backward compatibility ``TraceLog(sim)`` still works: given a
:class:`~repro.eventsim.core.Simulator` it creates a private bus, so
unit-level code (build a router, pass a trace) needs no changes, and
``TraceLog.record`` republishes through the bus.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterator, Optional

from .bus import ROUTE_AFFECTING, InstrumentationBus, Subscription, TraceRecord

__all__ = ["TraceRecord", "TraceLog", "ROUTE_AFFECTING"]


class TraceLog:
    """Record-retaining subscriber with category filters.

    Live observers subscribe to :attr:`bus` directly
    (:meth:`~repro.eventsim.bus.InstrumentationBus.subscribe`).
    """

    def __init__(
        self,
        source,
        *,
        categories=None,
        max_records: Optional[int] = None,
        sample: int = 1,
        capture: bool = True,
    ) -> None:
        if isinstance(source, InstrumentationBus):
            self.bus = source
        else:
            # legacy construction: TraceLog(sim) owns a private bus.
            self.bus = InstrumentationBus(source)
        self._records: deque = deque(maxlen=max_records)
        self._enabled = capture
        #: records silently evicted from the front of the ring buffer.
        #: Non-zero means queries over :attr:`records` saw a truncated
        #: history — surfaced in run reports so bounded captures cannot
        #: masquerade as complete ones.
        self.dropped_records = 0
        self.categories = (
            tuple(sorted(categories)) if categories is not None else None
        )
        self.max_records = max_records
        self._sample = sample
        # A disabled trace does not subscribe at all: with no
        # subscription the bus's lazy publishing path skips building
        # records entirely, which is what makes ``trace_level="off"``
        # runs approach the bare counting floor.
        self._subscription: Optional[Subscription] = None
        if capture:
            self._subscription = self._subscribe()

    def _subscribe(self) -> Subscription:
        # Unbounded ring: hand the bus the deque's C-level append — no
        # python frame per retained record.  Bounded ring: go through
        # _on_record, which maintains the dropped-records accounting.
        callback = (
            self._records.append
            if self.max_records is None
            else self._on_record
        )
        return self.bus.subscribe(
            callback,
            categories=self.categories,
            sample=self._sample,
            name="trace",
        )

    # ------------------------------------------------------------------
    # subscriber side
    # ------------------------------------------------------------------
    def _on_record(self, record: TraceRecord) -> None:
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped_records += 1
        records.append(record)

    def detach(self) -> None:
        """Stop receiving records from the bus entirely."""
        if self._subscription is not None:
            self.bus.unsubscribe(self._subscription)
            self._subscription = None

    # ------------------------------------------------------------------
    # publisher compatibility (records go through the bus)
    # ------------------------------------------------------------------
    def record(self, category: str, node: str, **data: Any) -> None:
        """Publish a record on the underlying bus."""
        self.bus.record(category, node, **data)

    @property
    def counts(self) -> Dict[str, int]:
        """Per-category totals of everything published (bus-maintained)."""
        return self.bus.counts

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
        """Timestamp of the last record in ``categories`` at/after ``since``."""
        latest: Optional[float] = None
        for rec in self._records:
            if rec.time >= since and rec.category in categories:
                if latest is None or rec.time > latest:
                    latest = rec.time
        return latest

    def count(self, category: str) -> int:
        """Total published records equal to or nested under ``category``.

        Counts come from the bus, so they are complete even when capture
        is filtered, sampled, bounded, or disabled.
        """
        return self.bus.count(category)

    def clear(self) -> None:
        """Drop retained records and reset the bus counters."""
        self._records.clear()
        self.dropped_records = 0
        self.bus.clear_counts()

    def __repr__(self) -> str:
        bound = self.max_records if self.max_records is not None else "inf"
        return (
            f"<TraceLog records={len(self._records)} bound={bound} "
            f"dropped={self.dropped_records} capture={self._enabled}>"
        )
