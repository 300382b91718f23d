"""A run's metrics payload, and a run's wall time by layer.

A run's metrics need no live store: the
:class:`~repro.eventsim.bus.InstrumentationBus` already counts every
record by category, and :func:`records_snapshot` renders those counts as
``records_total{category=...}`` counters — the summary that travels with
every sweep artifact (JSON export, CLI summary, registry row) instead of
megabytes of raw trace.  A payload is counters only; its ``gauges`` and
``histograms`` sections are kept, empty, so every stored payload keeps
its bytes.  :func:`merge_snapshots` adds a sweep's payloads and
:func:`format_snapshot` prints one.  (The service's live metrics are
structured families rendered by :mod:`repro.obs.runtime`.)

Wall time is read once per run, by layer: :func:`time_by_layer` sums
each dispatched event's wall seconds into the ``repro.<subpackage>``
that owns the event (:func:`event_layer`).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, Optional

from .timer import DebounceTimer, PeriodicTimer, Timer

__all__ = [
    "records_snapshot",
    "merge_snapshots",
    "format_snapshot",
    "layer_of_module",
    "event_layer",
    "time_by_layer",
]


def _payload(counters: Dict[str, float]) -> dict:
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": {},
        "histograms": {},
    }


def records_snapshot(counts: Dict[str, int]) -> dict:
    """A run's metrics payload from the bus's per-category ``counts``:
    one ``records_total{category=...}`` counter each, sorted by key.
    Bus categories are dotted names, so they go into the key as they
    are."""
    return _payload({
        f"records_total{{category={category}}}": float(n)
        for category, n in counts.items()
    })


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Add per-run payloads' counters into one sweep-level payload.

    A ``None`` or empty payload, or a missing or ``None`` counters
    section, contributes nothing.
    """
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for key, value in ((snap or {}).get("counters") or {}).items():
            counters[key] = counters.get(key, 0.0) + value
    return _payload(counters)


def format_snapshot(snapshot: dict, *, top: int = 20) -> str:
    """Human-readable metrics summary (the CLI's ``--metrics`` output):
    the ``top`` largest counters."""
    counters = snapshot.get("counters") or {}
    if not counters:
        return "(no metrics recorded)"
    lines = ["counters:"]
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
    for key, value in ranked[:top]:
        lines.append(f"  {key:<56} {value:12.0f}")
    if len(ranked) > top:
        lines.append(f"  ... and {len(ranked) - top} more")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# wall time by layer
# ----------------------------------------------------------------------
#: timers schedule their own ``_fire``; the work is the callback they hold.
_TIMERS = (Timer, PeriodicTimer, DebounceTimer)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to: its ``repro.<subpackage>`` name
    (``repro.bgp.router`` is ``bgp``), ``"other"`` outside the emulator."""
    package, _, rest = (module or "").partition(".")
    if package != "repro" or not rest:
        return "other"
    return rest.partition(".")[0]


def event_layer(callback: Callable) -> str:
    """The layer that owns a scheduled event's callback.

    The owner is the class of the object the callback is bound to, once
    a timer's ``_fire`` is unwrapped to the callback the timer holds (a
    fire is the work of whoever armed it) and any ``functools.partial``
    to its function — so a link delivery, ``partial(receiver.receive,
    ...)``, belongs to the receiving router, switch or controller.  An
    unbound function belongs to its module.
    """
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        owner = getattr(callback, "__self__", None)
        if not isinstance(owner, _TIMERS):
            break
        callback = owner._callback
    target = callback if owner is None else type(owner)
    return layer_of_module(getattr(target, "__module__", None))


def time_by_layer(sim) -> Dict[str, float]:
    """Sum every dispatched event's wall seconds into its layer.

    Installs a dispatch hook on ``sim`` and returns the live ``layer ->
    seconds`` dict it fills.  A hook installed before this one keeps
    running, once per event.  Only wall clocks are read, so
    virtual-time results are untouched.
    """
    walls: Dict[str, float] = {}
    # A bound callback (a session's, a router's, a timer's, a link
    # receiver's method) is resolved once: resolving it on every event
    # made this hook about three times as costly on a 16-AS Fig. 2
    # trial.  Closures are resolved each time, so no one-off callback
    # is kept alive.
    bound: Dict[Callable, str] = {}

    def hook(event, wall: float) -> None:
        callback = event[2]
        if type(callback) is functools.partial:  # a link delivery
            callback = callback.func
        layer = bound.get(callback)
        if layer is None:
            layer = event_layer(callback)
            if hasattr(callback, "__self__"):
                bound[callback] = layer
        walls[layer] = walls.get(layer, 0.0) + wall
        if previous is not None:
            previous(event, wall)

    previous = sim.set_dispatch_hook(hook)
    return walls
