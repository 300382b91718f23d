"""Metrics: counters, gauges, histograms, and the per-run payload.

Metrics are keyed by name plus optional labels (``category=...``,
``node=...``), rendered Prometheus-style as ``name{k=v,...}``.  A
:class:`MetricsRegistry` holds live metrics updated in O(1) (the
service's ``/metrics``).  A run's payload needs no registry: the
:class:`~repro.eventsim.bus.InstrumentationBus` already counts every
record by category, and :func:`records_snapshot` renders those counts as
``records_total`` counters in the registry's snapshot shape — the
summary that travels with every sweep artifact (JSON export, CLI
summary) instead of megabytes of raw trace.

Wall time is read once per run, by layer: :func:`time_by_layer` sums
each dispatched event's wall seconds into the ``repro.<subpackage>``
that owns the event (:func:`event_layer`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .timer import DebounceTimer, PeriodicTimer, Timer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "records_snapshot",
    "merge_snapshots",
    "format_snapshot",
    "parse_key",
    "layer_of_module",
    "event_layer",
    "time_by_layer",
]


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters only go up: {amount!r}")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (queue depth, RIB size...)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust upward."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust downward."""
        self.value -= amount


#: default histogram bucket upper bounds: powers of ten from 1 µs to
#: 100 s — wide enough for both wall-clock dispatch times and virtual
#: convergence gaps.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** e for e in range(-6, 3)
)


@dataclass
class Histogram:
    """Streaming histogram: running moments plus cumulative-style buckets.

    Keeps count/sum/min/max and per-bucket counts in O(1) per
    observation — enough to report mean, spread, and a coarse
    distribution without retaining observations.
    """

    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            # one extra bucket for "over the top bound"
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-ready summary."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "buckets": {
                (f"le_{bound:g}" if i < len(self.buckets) else "inf"): n
                for i, (bound, n) in enumerate(
                    zip(list(self.buckets) + [math.inf], self.bucket_counts)
                )
                if n
            },
        }


def _escape_label(value: str) -> str:
    """Escape the characters the key syntax itself uses, so distinct
    label sets can never render to the same key (``a="1,b=2"`` must not
    collide with ``a="1", b="2"``)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace(",", "\\,")
        .replace("=", "\\=")
        .replace("}", "\\}")
    )


def _key(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(
        f"{_escape_label(k)}={_escape_label(labels[k])}"
        for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`_key`: split ``name{k=v,...}`` back into name and
    labels, undoing the ``_escape_label`` backslash escapes.

    Keys without labels come back with an empty dict.  Exposition
    layers (``repro.obs.runtime``) rely on this to rebuild the label
    set that :class:`MetricsRegistry` flattened into the storage key.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed metric key: {key!r}")
    name, inner = key[:brace], key[brace + 1:-1]
    labels: Dict[str, str] = {}
    part: List[str] = []
    pending_key: Optional[str] = None
    i = 0
    while i <= len(inner):
        ch = inner[i] if i < len(inner) else None
        if ch == "\\" and i + 1 < len(inner):
            part.append(inner[i + 1])
            i += 2
            continue
        if ch == "=" and pending_key is None:
            pending_key = "".join(part)
            part = []
        elif ch == "," or ch is None:
            if pending_key is None:
                if part or ch is not None:
                    raise ValueError(f"malformed metric key: {key!r}")
            else:
                labels[pending_key] = "".join(part)
                pending_key = None
                part = []
        else:
            part.append(ch)
        i += 1
    return name, labels


class MetricsRegistry:
    """Get-or-create store of named metrics with label support.

    Metrics are registered with plain calls — no declaration step::

        registry.counter("service.requests", route=route).inc()
        registry.histogram("service.request_seconds").observe(elapsed)
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # metric accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        key = _key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        key = _key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self, name: str, *, buckets: Optional[Iterable[float]] = None,
        **labels: str,
    ) -> Histogram:
        """The histogram for ``name`` + labels, created on first use."""
        key = _key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = Histogram(
                buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
            )
            self._histograms[key] = metric
        return metric

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump of every metric (stable key order)."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {
                k: self._gauges[k].value for k in sorted(self._gauges)
            },
            "histograms": {
                k: self._histograms[k].to_dict()
                for k in sorted(self._histograms)
            },
        }

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )


def records_snapshot(counts: Dict[str, int]) -> dict:
    """A run's metrics payload from the bus's per-category ``counts``:
    one ``records_total{category=...}`` counter each, in the shape (and
    key order) of :meth:`MetricsRegistry.snapshot`."""
    counters = {
        _key("records_total", {"category": category}): float(n)
        for category, n in counts.items()
    }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": {},
        "histograms": {},
    }


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


def _bucket_sort_key(item: Tuple[str, int]) -> float:
    """Numeric order for bucket labels: ``le_<bound>`` ascending by
    bound, anything unparsable (``inf`` included) last."""
    label = item[0]
    if label.startswith("le_"):
        try:
            return float(label[3:])
        except ValueError:
            pass
    return math.inf


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Combine per-run snapshots into one sweep-level summary.

    Counters and histogram counts/sums add; histogram min/max widen;
    gauges keep the last seen value (they describe instantaneous state,
    so summing would be meaningless).  Degenerate inputs are tolerated:
    ``None``/empty snapshots are skipped, missing or ``None`` sections
    contribute nothing, and histograms recorded with *different* bucket
    boundaries merge by bound label (each count stays attributed to its
    own upper bound; the merged bucket dict is sorted by bound value so
    mixed boundary sets still read in order).
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for key, value in (snap.get("counters") or {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in (snap.get("gauges") or {}).items():
            gauges[key] = value
        for key, hist in (snap.get("histograms") or {}).items():
            merged = histograms.setdefault(
                key,
                {"count": 0, "sum": 0.0, "min": None, "max": None,
                 "mean": 0.0, "buckets": {}},
            )
            merged["count"] += hist.get("count", 0)
            merged["sum"] += hist.get("sum", 0.0)
            for bound in ("min", "max"):
                value = hist.get(bound)
                if value is None:
                    continue
                if merged[bound] is None:
                    merged[bound] = value
                elif bound == "min":
                    merged[bound] = min(merged[bound], value)
                else:
                    merged[bound] = max(merged[bound], value)
            for bucket, n in (hist.get("buckets") or {}).items():
                merged["buckets"][bucket] = (
                    merged["buckets"].get(bucket, 0) + n
                )
    for merged in histograms.values():
        if merged["count"]:
            merged["mean"] = merged["sum"] / merged["count"]
        merged["buckets"] = dict(
            sorted(merged["buckets"].items(), key=_bucket_sort_key)
        )
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def format_snapshot(snapshot: dict, *, top: int = 20) -> str:
    """Human-readable metrics summary (the CLI's ``--metrics`` output)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        for key, value in ranked[:top]:
            lines.append(f"  {key:<56} {value:12.0f}")
        if len(ranked) > top:
            lines.append(f"  ... and {len(ranked) - top} more")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for key in sorted(gauges):
            lines.append(f"  {key:<56} {gauges[key]:12.3f}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for key in sorted(histograms):
            h = histograms[key]
            if not h.get("count"):
                continue
            # min/max can be None even with count > 0 (snapshots merged
            # from sources that never reported extremes) — skip the
            # fields rather than crash the whole report.
            extremes = "".join(
                f" {bound}={h[bound]:.3g}"
                for bound in ("min", "max")
                if h.get(bound) is not None
            )
            lines.append(
                f"  {key}: n={h['count']} mean={h.get('mean', 0.0):.3g}"
                f"{extremes}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"
