"""Restartable one-shot, periodic and debounced timers on the kernel.

The IDR controller's delayed recomputation (a one-shot that *extends*
on new input) is the one in use.  A BGP session's MRAI expiry and
connect wait are bare kernel events in session slots instead, armed
with ``schedule`` and disarmed with ``cancel``: every session has them
(docs/scaling.md, "Set-up cost").
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import Event, Simulator

__all__ = ["Timer", "PeriodicTimer", "DebounceTimer"]


class Timer:
    """A restartable one-shot timer.

    ``start`` arms (or re-arms) the timer; ``stop`` disarms it.  The
    callback fires once per arming.
    """

    __slots__ = ("_sim", "_callback", "_background", "_label", "_event")

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        *,
        background: bool = False,
        label: str = "timer",
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._background = background
        self._label = label
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """True while armed and not yet fired."""
        return self._event is not None and not self._event.cancelled

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute virtual time of the pending expiry, or None."""
        return self._event.time if self.running else None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any arming."""
        self.stop()
        self._event = self._sim.schedule(
            delay, self._fire, background=self._background, label=self._label
        )

    def stop(self) -> None:
        """Disarm; safe to call when not running."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTimer:
    """Fires every ``interval`` seconds until stopped.

    Optional ``jitter_rng``/``jitter`` draw each period uniformly from
    ``[interval * (1 - jitter), interval]`` — the RFC 4271 style of timer
    jitter used to desynchronize periodic work.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        interval: float,
        *,
        background: bool = True,
        label: str = "periodic",
        jitter: float = 0.0,
        jitter_rng=None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval!r}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {jitter!r}")
        if jitter > 0 and jitter_rng is None:
            raise ValueError("jitter requires jitter_rng")
        self._sim = sim
        self._callback = callback
        self._interval = interval
        self._background = background
        self._label = label
        self._jitter = jitter
        self._rng = jitter_rng
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """True while armed and not yet fired."""
        return self._event is not None and not self._event.cancelled

    def start(self) -> None:
        """Start ticking; first fire is one period from now."""
        self.stop()
        self._arm()

    def stop(self) -> None:
        """Disarm; safe when not running."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _period(self) -> float:
        if self._jitter <= 0:
            return self._interval
        low = self._interval * (1.0 - self._jitter)
        return self._rng.uniform(low, self._interval)

    def _arm(self) -> None:
        self._event = self._sim.schedule(
            self._period(), self._fire, background=self._background, label=self._label
        )

    def _fire(self) -> None:
        self._event = None
        self._arm()
        self._callback()


class DebounceTimer:
    """Coalesces a burst of triggers into a single callback.

    Used for the IDR controller's *delayed recomputation*: each route
    event calls :meth:`trigger`; the callback fires ``delay`` seconds
    after the first trigger of a burst (``extend=False``, the paper's
    rate-limiting behaviour) or after the *last* trigger (``extend=True``,
    a quiescence-style debounce, available for ablation).
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        delay: float,
        *,
        extend: bool = False,
        label: str = "debounce",
    ) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0: {delay!r}")
        self._sim = sim
        self._callback = callback
        self.delay = delay
        self._extend = extend
        self._label = label
        self._event: Optional[Event] = None
        self.triggers_coalesced = 0

    @property
    def pending(self) -> bool:
        """True while a callback is scheduled."""
        return self._event is not None and not self._event.cancelled

    def trigger(self) -> None:
        """Note an input; schedules/extends the pending callback."""
        if self.pending:
            self.triggers_coalesced += 1
            if self._extend:
                self._sim.cancel(self._event)
                self._event = self._sim.schedule(
                    self.delay, self._fire, label=self._label
                )
            return
        self._event = self._sim.schedule(self.delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Drop any pending callback."""
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
