"""The fault injector: turns a schedule into first-class simulator events.

Every :class:`~repro.faults.schedule.FaultEvent` is pre-scheduled on the
experiment's :class:`~repro.eventsim.Simulator` at inject time, so fault
application interleaves with routing work under the exact same virtual
clock — a fault at offset 0 is bit-identical to calling the experiment
command synchronously, because all protocol timing is delay-based.

Per fault the engine:

1. at a *quiet* boundary (no foreground work pending and no heal
   outstanding) closes earlier measurement windows and runs the
   :class:`~repro.faults.invariants.InvariantChecker`;
2. records ``fault.inject`` on the bus (a non-route-affecting category,
   so measurements are unperturbed) and opens a
   :class:`~repro.framework.convergence.MeasurementWindow`;
3. applies the fault through the experiment's fault commands;
4. schedules the *heal* (flap toggles, degradation restore, router
   restart, controller recovery, partition heal), recording
   ``fault.heal`` when it completes.

Windows may overlap when a fault fires mid-convergence of an earlier
one; each report still satisfies ``t_settled >= t_converged >=
t_state_converged >= t_event``.

Determinism: flap jitter draws from the named random stream
``fault.jitter.<fault_seed>``, so (a) it never perturbs the streams
existing components use, and (b) the same schedule + seeds reproduce
the identical record stream — a
:class:`~repro.eventsim.bus.RecordDigest` subscribed before the
experiment starts folds it into one sha256, which ``repro faults run``
prints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..framework.convergence import ConvergenceMeasurement, MeasurementWindow
from ..net.addr import Prefix
from .invariants import InvariantChecker, InvariantError, InvariantViolation
from .schedule import FaultEvent, FaultSchedule

__all__ = ["FaultInjector", "FaultReport", "ScenarioResult", "FaultError"]


class FaultError(RuntimeError):
    """Engine misuse (double inject, fault on an impossible target)."""


@dataclass
class FaultReport:
    """Outcome of one injected fault."""

    index: int
    kind: str
    at: float
    #: absolute virtual time the fault fired.
    t_fired: float = 0.0
    #: True when the fault was a no-op on this deployment (e.g. a
    #: controller fault in a pure-BGP run).
    skipped: bool = False
    measurement: Optional[ConvergenceMeasurement] = None
    violations: List[InvariantViolation] = field(default_factory=list)


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    reports: List[FaultReport]
    violations: List[InvariantViolation]
    #: the virtual time the run was finalized at: the settle instant.
    t_end: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def convergence_times(self) -> List[float]:
        """Per-fault convergence times (a skipped fault is measured
        too: its window opens as it fires)."""
        return [r.measurement.convergence_time for r in self.reports]


class FaultInjector:
    """Schedules a :class:`FaultSchedule` onto a started experiment."""

    def __init__(
        self,
        experiment,
        schedule: FaultSchedule,
        *,
        check_invariants: bool = True,
        strict: bool = False,
    ) -> None:
        self.experiment = experiment
        self.schedule = schedule
        self.checker = (
            InvariantChecker(experiment) if check_invariants else None
        )
        self.strict = strict
        self.reports: List[FaultReport] = []
        self.violations: List[InvariantViolation] = []
        self._open: List[tuple] = []  # (report, MeasurementWindow)
        self._unhealed = 0
        self._injected = False
        self._finalized = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def inject(self) -> None:
        """Pre-schedule every fault relative to the current instant."""
        if self._injected:
            raise FaultError("schedule already injected")
        self._injected = True
        sim = self.experiment.net.sim
        for index, event in enumerate(self.schedule.events):
            sim.schedule(
                event.at,
                functools.partial(self._fire, index, event),
                label=f"fault:{event.kind}",
            )

    def run(self, *, horizon: Optional[float] = None) -> ScenarioResult:
        """Inject, settle, and finalize in one call."""
        self.inject()
        self.experiment.wait_converged(horizon)
        return self.finalize()

    def finalize(self) -> ScenarioResult:
        """Close remaining windows, run the final checks, build the
        result; raise :class:`InvariantError` on a violation when
        ``strict``."""
        if self._finalized:
            raise FaultError("scenario already finalized")
        self._finalized = True
        self._close_open_windows()  # every report is measured now
        self._run_checks()
        for report in self.reports:
            ordering = InvariantChecker.check_measurement(
                report.measurement, fault=f"#{report.index} {report.kind}"
            )
            report.violations.extend(ordering)
            self.violations.extend(ordering)
        result = ScenarioResult(
            reports=self.reports,
            violations=self.violations,
            t_end=self.experiment.now,
        )
        if self.strict and not result.ok:
            raise InvariantError(result.violations)
        return result

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _fire(self, index: int, event: FaultEvent) -> None:
        exp = self.experiment
        sim = exp.net.sim
        if sim.pending_foreground() == 0:
            # Quiet boundary: everything before this fault has converged.
            self._close_open_windows()
            self._run_checks()
        exp.net.bus.record(
            "fault.inject", "faults",
            kind=event.kind, index=index, at=event.at,
        )
        report = FaultReport(
            index=index, kind=event.kind, at=event.at, t_fired=sim.now
        )
        self.reports.append(report)
        self._open.append(
            (report, MeasurementWindow(exp, label=f"{index}:{event.kind}"))
        )
        applier = getattr(self, f"_apply_{event.kind}")
        applier(index, event, dict(event.params))

    def _close_open_windows(self) -> None:
        now = self.experiment.now
        for report, window in self._open:
            report.measurement = window.close(now)
        self._open = []

    def _run_checks(self) -> None:
        if self.checker is None or self._unhealed > 0:
            return
        found = self.checker.check()
        if not found:
            return
        self.violations.extend(found)
        if self.reports:
            self.reports[-1].violations.extend(found)

    def _heal(self, index: int, kind: str, action) -> None:
        action()
        self._unhealed -= 1
        self.experiment.net.bus.record(
            "fault.heal", "faults", kind=kind, index=index
        )

    def _schedule_heal(self, delay: float, index: int, kind: str, action):
        self._unhealed += 1
        self.experiment.net.sim.schedule(
            delay,
            functools.partial(self._heal, index, kind, action),
            label=f"fault:{kind}:heal",
        )

    def _skip(self, index: int, kind: str, why: str) -> None:
        self.reports[-1].skipped = True
        self.experiment.net.bus.record(
            "fault.skipped", "faults", kind=kind, index=index, reason=why
        )

    # ------------------------------------------------------------------
    # per-kind application
    # ------------------------------------------------------------------
    def _apply_link_down(self, index, event, p) -> None:
        self.experiment.fail_link(p["a"], p["b"])

    def _apply_link_up(self, index, event, p) -> None:
        self.experiment.restore_link(p["a"], p["b"])

    def _apply_link_flap(self, index, event, p) -> None:
        link = self.experiment.phys_link(p["a"], p["b"])
        count = p.get("count", 3)
        interval = p.get("interval", 1.0)
        jitter = p.get("jitter", 0.0)
        rng = self.experiment.net.sim.rng(
            f"fault.jitter.{self.schedule.fault_seed}"
        )
        # 2*count toggles (down at even steps, up at odd), jittered but
        # kept monotonic so a large jitter cannot reorder the sequence.
        offsets: List[float] = []
        last = 0.0
        for step in range(2 * count):
            base = step * interval
            wobble = rng.uniform(0.0, jitter) if jitter > 0 else 0.0
            last = max(last, base + wobble)
            offsets.append(last)
        sim = self.experiment.net.sim
        link.set_up(False)  # first toggle fires with the fault itself
        for step in range(1, 2 * count - 1):
            sim.schedule(
                offsets[step] - offsets[0],
                functools.partial(link.set_up, step % 2 == 1),
                label="fault:link_flap:toggle",
            )
        final_delay = (
            offsets[2 * count - 1] - offsets[0] if count > 0 else 0.0
        )
        self._schedule_heal(
            final_delay, index, "link_flap",
            functools.partial(link.set_up, True),
        )

    def _apply_link_degrade(self, index, event, p) -> None:
        previous = self.experiment.degrade_link(
            p["a"], p["b"],
            latency=p.get("latency"), loss=p.get("loss"),
        )

        def restore() -> None:
            self.experiment.net.set_link_quality(
                self.experiment.phys_link(p["a"], p["b"]), **previous
            )

        self._schedule_heal(p["duration"], index, "link_degrade", restore)

    def _apply_session_reset(self, index, event, p) -> None:
        self.experiment.reset_session(p["asn"], p["peer"])

    def _apply_router_crash(self, index, event, p) -> None:
        asn = p["asn"]
        self.experiment.crash_router(asn)
        self._schedule_heal(
            p.get("down_for", 5.0), index, "router_crash",
            functools.partial(self.experiment.restart_router, asn),
        )

    def _apply_controller_fail(self, index, event, p) -> None:
        if self.experiment.controller is None:
            self._skip(index, "controller_fail", "no controller deployed")
            return
        self.experiment.fail_controller()
        self._schedule_heal(
            p.get("outage", 5.0), index, "controller_fail",
            self.experiment.recover_controller,
        )

    def _apply_controller_partition(self, index, event, p) -> None:
        if self.experiment.speaker is None:
            self._skip(index, "controller_partition", "no speaker deployed")
            return
        self.experiment.partition_controller()
        self._schedule_heal(
            p.get("duration", 5.0), index, "controller_partition",
            self.experiment.heal_controller_partition,
        )

    def _resolve_prefix(self, p: Dict) -> Prefix:
        raw = p.get("prefix")
        if raw is not None:
            return Prefix.parse(raw)
        return self.experiment.as_prefix(p["asn"])

    def _is_originated(self, asn: int, prefix) -> bool:
        node = self.experiment.node(asn)
        if hasattr(node, "originated"):  # legacy BGP router
            return prefix in node.originated
        # SDN member: the controller tracks cluster originations
        members = self.experiment.controller.originations.get(prefix, set())
        return node.name in members

    def _set_origination(self, asn: int, prefix, withdrawing: bool) -> None:
        """Idempotent announce/withdraw: composed schedules may flip a
        prefix that another fault already left in the target state."""
        originated = self._is_originated(asn, prefix)
        if withdrawing and originated:
            self.experiment.withdraw(asn, prefix)
        elif not withdrawing and not originated:
            self.experiment.announce(asn, prefix)

    def _apply_announce(self, index, event, p) -> None:
        self._set_origination(p["asn"], self._resolve_prefix(p), False)

    def _apply_withdraw(self, index, event, p) -> None:
        self._set_origination(p["asn"], self._resolve_prefix(p), True)

    def _apply_prefix_flap(self, index, event, p) -> None:
        asn = p["asn"]
        prefix = self._resolve_prefix(p)
        count = p.get("count", 2)
        interval = p.get("interval", 1.0)
        first = p.get("first", "withdraw")
        sim = self.experiment.net.sim

        def flip(step: int) -> None:
            withdrawing = (step % 2 == 0) == (first == "withdraw")
            self._set_origination(asn, prefix, withdrawing)

        flip(0)
        for step in range(1, count):
            sim.schedule(
                step * interval,
                functools.partial(flip, step),
                label="fault:prefix_flap:flip",
            )
