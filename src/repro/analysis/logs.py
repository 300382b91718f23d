"""Automatic log analysis (paper §3).

"The framework supports tools for automatic log file analysis ...
convergence time and loss measurement."  These functions fold the
emulator's structured log — an iterable of
:class:`~repro.eventsim.TraceRecord`, such as the list that
``exp.net.bus.subscribe(records.append)`` fills — into the quantities
an experimenter reads off: update churn over time, per-node message
counts and per-prefix route-change histories.  (Convergence instants
are read once, by :class:`~repro.framework.convergence.MeasurementWindow`.)
Nothing retains records by default: subscribe before the span of the
run to be read (``Experiment.build()`` publishes nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..eventsim import TraceRecord

__all__ = [
    "RouteChange",
    "update_counts_by_node",
    "churn_timeline",
    "route_history",
]


@dataclass(frozen=True)
class RouteChange:
    """One best-route change at one node (from ``bgp.decision`` records)."""

    time: float
    node: str
    prefix: str
    old_path: Optional[str]
    new_path: Optional[str]

    @property
    def is_loss(self) -> bool:
        """True when the best route disappeared."""
        return self.new_path is None

    @property
    def is_gain(self) -> bool:
        """True when a route appeared where none was."""
        return self.old_path is None and self.new_path is not None


def update_counts_by_node(
    records: Iterable[TraceRecord],
    *,
    direction: str = "tx",
    since: float = 0.0,
) -> Dict[str, int]:
    """BGP updates sent (``tx``) or received (``rx``) per node."""
    if direction not in ("tx", "rx"):
        raise ValueError(f"direction must be tx or rx: {direction!r}")
    category = f"bgp.update.{direction}"
    counts: Dict[str, int] = {}
    for rec in records:
        if rec.time >= since and rec.matches(category):
            counts[rec.node] = counts.get(rec.node, 0) + 1
    return counts


def churn_timeline(
    records: Iterable[TraceRecord],
    *,
    bin_size: float = 1.0,
    category: str = "bgp.update.tx",
    since: float = 0.0,
    until: Optional[float] = None,
) -> List[Tuple[float, int]]:
    """Updates per time bin — the classic convergence-churn plot series.

    Returns ``[(bin_start_time, count), ...]`` for non-empty bins.
    """
    if bin_size <= 0:
        raise ValueError(f"bin_size must be positive: {bin_size!r}")
    bins: Dict[int, int] = {}
    for rec in records:
        if rec.time < since or (until is not None and rec.time > until):
            continue
        if rec.matches(category):
            index = int((rec.time - since) // bin_size)
            bins[index] = bins.get(index, 0) + 1
    return [
        (since + index * bin_size, bins[index]) for index in sorted(bins)
    ]


def route_history(
    records: Iterable[TraceRecord], prefix, *, node: Optional[str] = None
) -> List[RouteChange]:
    """Best-path changes for ``prefix`` (route-change visualization input)."""
    target = str(prefix)
    changes: List[RouteChange] = []
    for rec in records:
        if not rec.matches("bgp.decision") or (
            node is not None and rec.node != node
        ):
            continue
        if rec.data.get("prefix") != target:
            continue
        changes.append(
            RouteChange(
                time=rec.time,
                node=rec.node,
                prefix=target,
                old_path=rec.data.get("old"),
                new_path=rec.data.get("new"),
            )
        )
    return changes
