"""Discrete-event simulation kernel (the framework's Mininet substitute).

Public surface:

- :class:`Simulator` — deterministic event loop with virtual time,
  seeded random sub-streams, and exact convergence detection via
  foreground/background event classification; :class:`FifoLane` — its
  O(1) queue for events always scheduled one fixed delay ahead
  (``sim.fifo_lane(delay)``).
- :class:`Timer`, :class:`PeriodicTimer`, :class:`DebounceTimer` —
  the timer disciplines BGP and the IDR controller need.
- :class:`InstrumentationBus` — the publish/subscribe hub every
  component emits typed :class:`TraceRecord` events on; each simulator
  owns one, ``sim.bus``.  Nothing retains records: an analysis
  subscribes for the run it reads (a list's ``append`` for the
  ``repro.analysis`` log tools, :class:`RecordDigest` for a run's
  digest).
- :func:`merge_snapshots` / :func:`format_snapshot` — a sweep's
  ``records_total`` counter payloads added up and printed;
  :func:`time_by_layer` — a run's dispatch wall time by layer.
"""

from .bus import (
    ROUTE_AFFECTING,
    STATE_CHANGING,
    InstrumentationBus,
    RecordDigest,
    Subscription,
    TraceRecord,
)
from .core import Event, FifoLane, SimulationError, Simulator
from .metrics import format_snapshot, merge_snapshots, time_by_layer
from .timer import DebounceTimer, PeriodicTimer, Timer

__all__ = [
    "Event",
    "FifoLane",
    "SimulationError",
    "Simulator",
    "Timer",
    "PeriodicTimer",
    "DebounceTimer",
    "InstrumentationBus",
    "RecordDigest",
    "Subscription",
    "TraceRecord",
    "ROUTE_AFFECTING",
    "STATE_CHANGING",
    "merge_snapshots",
    "format_snapshot",
    "time_by_layer",
]
