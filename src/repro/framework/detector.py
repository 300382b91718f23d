"""Silence-window convergence detection (the practical method).

A real testbed cannot know that no routing work remains — the paper's
framework "detects when the network has converged" by watching the BGP
update stream go quiet for long enough.  This module implements that
heuristic detector alongside our exact (event-queue) oracle, so
experiments can quantify what the heuristic costs:

- it *declares* convergence one silence-window late, and
- too short a window risks a false declaration inside an MRAI gap.

``compare_with_oracle`` runs both on the same event and reports the
declared time, the true time, and whether the heuristic fired early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..eventsim import ROUTE_AFFECTING, TraceRecord
from .experiment import Experiment

__all__ = ["SilenceDetection", "SilenceDetector", "compare_with_oracle"]


@dataclass
class SilenceDetection:
    """What the silence heuristic saw for one event."""

    #: last route-affecting activity the detector observed.
    t_last_activity: float
    #: when the detector declared convergence (last activity + window).
    t_declared: float
    #: the exact convergence instant from the oracle (event-queue based).
    t_oracle: float
    silence_window: float

    @property
    def declaration_lag(self) -> float:
        """Extra waiting the heuristic costs over the oracle."""
        return self.t_declared - self.t_oracle

    @property
    def premature(self) -> bool:
        """True if the heuristic would have fired before true convergence.

        Happens when some activity gap during convergence (e.g. an MRAI
        round) exceeds the silence window — the classic pitfall of
        silence-based measurement with short windows.
        """
        return self.t_last_activity < self.t_oracle - 1e-9


class SilenceDetector:
    """Streaming bus subscriber that tracks route-affecting activity gaps.

    Subscribes directly to the instrumentation bus, filtered to the
    route-affecting categories, so it works with trace capture reduced
    or disabled — the heuristic needs no retained records, only the live
    stream.  The subscription's filter is the only category test.
    """

    def __init__(
        self,
        experiment: Experiment,
        *,
        silence_window: float = 60.0,
    ) -> None:
        if silence_window <= 0:
            raise ValueError(f"window must be positive: {silence_window!r}")
        self.experiment = experiment
        self.silence_window = silence_window
        self._last_activity: Optional[float] = None
        self._first_fire: Optional[float] = None
        self._armed = False
        self._bus = experiment.net.bus
        self._subscription = self._bus.subscribe(
            self._tap, categories=ROUTE_AFFECTING, name="silence-detector",
        )

    # ------------------------------------------------------------------
    def _tap(self, record: TraceRecord) -> None:
        if not self._armed:
            return
        if (
            self._first_fire is None
            and self._last_activity is not None
            and record.time - self._last_activity > self.silence_window
        ):
            # The heuristic would already have declared convergence at
            # last_activity + window; remember that premature firing.
            self._first_fire = self._last_activity + self.silence_window
        self._last_activity = record.time

    def arm(self) -> None:
        """Start watching (call right before injecting the event)."""
        self._armed = True
        self._last_activity = self.experiment.now
        self._first_fire = None

    def result(self, t_oracle: float) -> SilenceDetection:
        """Summarize after the experiment has settled."""
        last = (
            self._last_activity
            if self._last_activity is not None
            else t_oracle
        )
        declared = (
            self._first_fire
            if self._first_fire is not None
            else last + self.silence_window
        )
        t_last_seen = (
            self._first_fire - self.silence_window
            if self._first_fire is not None
            else last
        )
        return SilenceDetection(
            t_last_activity=t_last_seen,
            t_declared=declared,
            t_oracle=t_oracle,
            silence_window=self.silence_window,
        )

    def detach(self) -> None:
        """Stop observing the experiment's instrumentation bus."""
        if self._subscription is not None:
            self._bus.unsubscribe(self._subscription)
            self._subscription = None


def compare_with_oracle(
    experiment: Experiment,
    event: Callable[[], None],
    *,
    silence_window: float = 60.0,
) -> SilenceDetection:
    """Run ``event`` measuring convergence both ways."""
    from .convergence import measure_event

    detector = SilenceDetector(experiment, silence_window=silence_window)
    detector.arm()
    try:
        measurement = measure_event(experiment, event)
    finally:
        detector.detach()
    return detector.result(measurement.t_converged)
