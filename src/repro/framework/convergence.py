"""Convergence detection and measurement.

"The framework detects when the network has converged and whether there
is stable connectivity between all hosts" (paper §3).  Convergence is
detected exactly: the simulator knows when no routing work (foreground
events) remains.  The convergence *time* of an injected event is read
from the instrumentation stream — the timestamp of the last
route-affecting record — which matches how the paper measures it from
BGP update logs, minus the sampling noise of a real testbed.

Measurement is streaming: the instrumentation bus stamps the time of
each category's last record and counts every record in O(1), and a
:class:`MeasurementWindow` reads the last route-affecting / last
state-changing timestamps and the activity counters from those tables,
so :func:`measure_event` needs no post-run trace scan and no bus
subscription.  The scan of a run's records it replaced lives on as the
oracle in ``tests/framework/test_streaming.py``, which the streaming
path is tested bit-identical against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..eventsim import ROUTE_AFFECTING, STATE_CHANGING
from ..eventsim.bus import _count
from .experiment import Experiment, _full_collections_held

__all__ = [
    "ConvergenceMeasurement",
    "MeasurementWindow",
    "measure_event",
    "STATE_CHANGING",
]


@dataclass
class ConvergenceMeasurement:
    """Outcome of one injected routing event."""

    #: virtual time the event was injected.
    t_event: float
    #: timestamp of the last route-affecting activity (== t_event when
    #: the event caused no routing change at all).
    t_converged: float
    #: virtual time at which the simulator fully settled.
    t_settled: float
    #: timestamp of the last actual routing-state change (decision/FIB).
    #: Trailing MRAI-paced re-advertisements of an already-made decision
    #: count as activity but not as state change, so this can be earlier
    #: than ``t_converged``.  None (the default) means "no state change
    #: occurred" and resolves to ``t_event``, so that
    #: ``t_converged >= t_state_converged >= t_event`` always holds.
    t_state_converged: Optional[float] = None
    #: update messages sent / received network-wide during convergence.
    updates_tx: int = 0
    updates_rx: int = 0
    #: BGP decision-process best-change count.
    decision_changes: int = 0
    #: FIB/flow-table changes.
    fib_changes: int = 0
    #: controller recomputation rounds (0 in pure-BGP runs).
    recomputations: int = 0
    #: whether every AS pair was data-plane reachable afterwards.
    all_reachable: Optional[bool] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.t_state_converged is None:
            self.t_state_converged = self.t_event

    @property
    def convergence_time(self) -> float:
        """Seconds from event injection to the last update activity —
        what a route collector observes (the paper's Fig. 2 metric)."""
        return self.t_converged - self.t_event

    @property
    def state_convergence_time(self) -> float:
        """Seconds from event injection to the last routing-state change
        (every FIB is final from this instant on)."""
        return self.t_state_converged - self.t_event


def _finalize_instants(
    t_event: float,
    last_activity: Optional[float],
    last_state: Optional[float],
) -> tuple:
    """Resolve a window's raw maxima into ``(t_converged, t_state_converged)``.

    ``None`` means nothing happened in the window and resolves to
    ``t_event``.  Were the last *state change* ever read after the last
    *activity* — category sets that are not nested — convergence could
    not precede the final state change, so ``t_converged`` is raised to
    match.  STATE_CHANGING is a subset of ROUTE_AFFECTING, so for the
    bus's readings the clamp is a no-op and keeps the ordering chain a
    guarantee rather than a coincidence of the two declarations.
    """
    t_state = last_state if last_state is not None else t_event
    t_converged = last_activity if last_activity is not None else t_event
    return max(t_converged, t_state), t_state


@_full_collections_held()
def measure_event(
    experiment: Experiment,
    event: Callable[[], None],
    *,
    horizon: Optional[float] = None,
    check_reachability: bool = False,
) -> ConvergenceMeasurement:
    """Inject ``event`` on a converged experiment and measure the fallout.

    The experiment must already be started and settled; the function
    opens a :class:`MeasurementWindow`, fires the event, runs the
    simulator until it settles again and closes the window there — no
    trace scan, so its cost is independent of run size.

    The collector is held from the event to the settle, as in a trial
    (``_full_collections_held``): an event on a long-lived experiment
    (a storm phase) makes no cyclic garbage, and its allocations would
    otherwise trigger full passes over the whole network's heap.
    """
    window = MeasurementWindow(experiment)
    event()
    return window.close(
        experiment.wait_converged(horizon),
        check_reachability=check_reachability,
    )


class MeasurementWindow:
    """An open measurement interval over the bus's streaming tables.

    Opening a window snapshots the bus counters at the event instant;
    :meth:`close` reads the bus's last route-affecting and last
    state-changing timestamps filtered to the window and produces a
    :class:`ConvergenceMeasurement` without advancing the simulator or
    scanning the trace, so the fault engine can keep one window per
    injected fault at O(1) cost each.  Because virtual time is
    monotonic, "last seen" equals "maximum over records since any
    earlier instant", so these readings are bit-identical to a full
    trace scan.

    Windows may overlap — a second fault can fire while the first is
    still converging.  Each window measures from its own ``t_open``, so
    activity in the overlap is attributed to every window that was open
    while it happened (causality across overlapping faults is not
    attributable from global counters).  The per-window ordering chain
    ``t_settled >= t_converged >= t_state_converged >= t_event`` is
    guaranteed by :func:`_finalize_instants` even in the overlap case.
    """

    def __init__(self, experiment: Experiment, *, label: str = "") -> None:
        self.experiment = experiment
        self.label = label
        self.t_open: float = experiment.now
        self._counts_before: Dict[str, int] = dict(experiment.net.bus.counts)
        self.closed = False

    def _last_since_open(self, categories) -> Optional[float]:
        last = self.experiment.net.bus.last_time(categories)
        return last if last is not None and last >= self.t_open else None

    def close(
        self,
        t_close: Optional[float] = None,
        *,
        check_reachability: bool = False,
    ) -> ConvergenceMeasurement:
        """Seal the window at ``t_close`` (default: now) and measure it."""
        if self.closed:
            raise ValueError(f"window {self.label!r} already closed")
        self.closed = True
        t_settled = self.experiment.now if t_close is None else t_close
        t_converged, t_state_converged = _finalize_instants(
            self.t_open,
            self._last_since_open(ROUTE_AFFECTING),
            self._last_since_open(STATE_CHANGING),
        )
        counts_after = dict(self.experiment.net.bus.counts)

        def delta(category: str) -> int:
            return _count(counts_after, category) - _count(
                self._counts_before, category
            )

        measurement = ConvergenceMeasurement(
            t_event=self.t_open,
            t_converged=t_converged,
            t_settled=t_settled,
            t_state_converged=t_state_converged,
            updates_tx=delta("bgp.update.tx"),
            updates_rx=delta("bgp.update.rx"),
            decision_changes=delta("bgp.decision"),
            fib_changes=delta("fib.change"),
            recomputations=delta("controller.recompute"),
        )
        if check_reachability:
            measurement.all_reachable = self.experiment.all_reachable()
        return measurement
