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
  component emits typed records on; each simulator owns one, ``sim.bus``.
- :class:`TraceLog` / :class:`TraceRecord` — record capture (one bus
  subscriber) consumed by the analysis tools.
- :func:`merge_snapshots` / :func:`format_snapshot` — a sweep's
  ``records_total`` counter payloads added up and printed;
  :func:`time_by_layer` — a run's dispatch wall time by layer.
"""

from .bus import (
    ROUTE_AFFECTING,
    STATE_CHANGING,
    InstrumentationBus,
    Subscription,
)
from .core import Event, FifoLane, SimulationError, Simulator
from .metrics import format_snapshot, merge_snapshots, time_by_layer
from .timer import DebounceTimer, PeriodicTimer, Timer
from .trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "FifoLane",
    "SimulationError",
    "Simulator",
    "Timer",
    "PeriodicTimer",
    "DebounceTimer",
    "InstrumentationBus",
    "Subscription",
    "TraceLog",
    "TraceRecord",
    "ROUTE_AFFECTING",
    "STATE_CHANGING",
    "merge_snapshots",
    "format_snapshot",
    "time_by_layer",
]
