"""Runtime invariant checking for fault scenarios.

The checker inspects a quiescent experiment — the fault engine calls it
at quiet instants (no foreground work pending, no heal outstanding) and
once more after the final settle — and reports violations of:

1. **No forwarding loops**: no ordered AS pair's data-plane walk revisits
   a node.  Unreachability is *not* a violation (links may legitimately
   be down); a loop always is.
2. **No stale Loc-RIB entries after silence**: every best route is backed
   by live state — locally originated routes by the origination config,
   learned routes by an ESTABLISHED session whose Adj-RIB-In still holds
   the same attributes — and every BGP-sourced FIB entry has a Loc-RIB
   best (and vice versa).
3. **Decisions match the full scan**: every router's Loc-RIB best is
   the one a scan of every session's table picks
   (:meth:`~repro.bgp.router.BGPRouter.verify_decisions` — the oracle
   the prefix index is held to).
4. **Controller/switch sync**: when the controller is active and
   reachable, its compiled state matches the switches' flow tables
   (:meth:`~repro.controller.idr.IDRController.audit`).
5. **Measurement ordering** per fault:
   ``t_settled >= t_converged >= t_state_converged >= t_event``.

Violations are data (:class:`InvariantViolation`), not exceptions;
strict callers raise :class:`InvariantError` from the collected list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..bgp.router import BGPRouter

__all__ = ["InvariantChecker", "InvariantViolation", "InvariantError"]


@dataclass(frozen=True)
class InvariantViolation:
    """One observed invariant breach at one instant."""

    time: float
    check: str
    node: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.3f}] {self.check} @ {self.node}: {self.detail}"


class InvariantError(AssertionError):
    """Raised in strict mode when any invariant was violated."""

    def __init__(self, violations: List[InvariantViolation]) -> None:
        self.violations = list(violations)
        lines = "\n".join(str(v) for v in self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s):\n{lines}"
        )


class InvariantChecker:
    """Checks routing-state invariants on a quiescent experiment."""

    def __init__(self, experiment) -> None:
        self.experiment = experiment

    # ------------------------------------------------------------------
    def check(self) -> List[InvariantViolation]:
        """Run every state check; returns violations (empty = clean)."""
        out: List[InvariantViolation] = []
        out.extend(self.check_forwarding_loops())
        out.extend(self.check_loc_rib_consistency())
        out.extend(self.check_decisions())
        out.extend(self.check_controller_sync())
        return out

    # ------------------------------------------------------------------
    def check_forwarding_loops(self) -> List[InvariantViolation]:
        """No data-plane walk between any AS pair may revisit a node."""
        exp = self.experiment
        now = exp.now
        out: List[InvariantViolation] = []
        for (src, dst), trace in exp.connectivity_matrix().items():
            if not trace.reached and trace.reason.startswith("loop"):
                out.append(
                    InvariantViolation(
                        time=now,
                        check="forwarding_loop",
                        node=exp.node(src).name,
                        detail=(
                            f"AS{src}->AS{dst}: {trace.reason} "
                            f"(path {' > '.join(trace.hops)})"
                        ),
                    )
                )
        return out

    # ------------------------------------------------------------------
    def check_loc_rib_consistency(self) -> List[InvariantViolation]:
        """Every Loc-RIB best is backed by live state, and FIB matches."""
        exp = self.experiment
        now = exp.now
        out: List[InvariantViolation] = []
        for node in exp.net.nodes_of_type(BGPRouter):
            for route in node.loc_rib.routes():
                if route.is_local:
                    if route.prefix not in node.originated:
                        out.append(
                            InvariantViolation(
                                time=now, check="stale_loc_rib",
                                node=node.name,
                                detail=(
                                    f"local best for {route.prefix} but the "
                                    f"prefix is no longer originated"
                                ),
                            )
                        )
                    continue
                session = node.session_of(route)
                if session is None:
                    out.append(
                        InvariantViolation(
                            time=now, check="stale_loc_rib", node=node.name,
                            detail=(
                                f"best for {route.prefix} learned from "
                                f"AS{route.peer_asn}/{route.peer_name} but no "
                                f"established session with that peer remains"
                            ),
                        )
                    )
                    continue
                held = session.rib_in.get(route.prefix)
                if held is None or held.attrs != route.attrs:
                    out.append(
                        InvariantViolation(
                            time=now, check="stale_loc_rib", node=node.name,
                            detail=(
                                f"best for {route.prefix} diverges from the "
                                f"Adj-RIB-In of {route.peer_name}"
                            ),
                        )
                    )
            out.extend(self._check_fib_sync(node, now))
        return out

    def _check_fib_sync(self, node: BGPRouter, now: float):
        out: List[InvariantViolation] = []
        fib_prefixes = set()
        for entry in node.fib:
            if not entry.source.startswith("bgp"):
                continue
            fib_prefixes.add(entry.prefix)
            if node.loc_rib.get(entry.prefix) is None:
                out.append(
                    InvariantViolation(
                        time=now, check="fib_sync", node=node.name,
                        detail=(
                            f"FIB holds {entry.prefix} (via {entry.via}) "
                            f"with no Loc-RIB best behind it"
                        ),
                    )
                )
        for route in node.loc_rib.routes():
            if route.prefix in fib_prefixes:
                continue
            # A best without a FIB entry is legal only when the backing
            # session vanished mid-install; at quiet instants that state
            # must have been re-decided away.
            out.append(
                InvariantViolation(
                    time=now, check="fib_sync", node=node.name,
                    detail=f"Loc-RIB best for {route.prefix} missing from FIB",
                )
            )
        return out

    # ------------------------------------------------------------------
    def check_decisions(self) -> List[InvariantViolation]:
        """Every router's Loc-RIB best equals the full-scan best."""
        now = self.experiment.now
        return [
            InvariantViolation(
                time=now, check="decision", node=node.name, detail=problem,
            )
            for node in self.experiment.net.nodes_of_type(BGPRouter)
            for problem in node.verify_decisions()
        ]

    # ------------------------------------------------------------------
    def check_controller_sync(self) -> List[InvariantViolation]:
        """Controller-compiled rules match switch flow tables."""
        exp = self.experiment
        controller = exp.controller
        if controller is None or not controller.active:
            return []
        if exp.speaker is not None and not exp.speaker.controller_reachable:
            return []
        now = exp.now
        return [
            InvariantViolation(
                time=now, check="controller_audit",
                node=controller.name, detail=problem,
            )
            for problem in controller.audit()
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def check_measurement(measurement, *, fault: str = "") -> List[
        InvariantViolation
    ]:
        """Per-fault time-ordering chain (holds even for overlapping
        windows — see ``framework.convergence._finalize_instants``)."""
        out: List[InvariantViolation] = []
        label = f"fault {fault}" if fault else "fault"
        chain = (
            ("t_settled", measurement.t_settled, "t_converged",
             measurement.t_converged),
            ("t_converged", measurement.t_converged, "t_state_converged",
             measurement.t_state_converged),
            ("t_state_converged", measurement.t_state_converged, "t_event",
             measurement.t_event),
        )
        for hi_name, hi, lo_name, lo in chain:
            if hi < lo:
                out.append(
                    InvariantViolation(
                        time=measurement.t_event,
                        check="measurement_order",
                        node=label,
                        detail=f"{hi_name}={hi!r} < {lo_name}={lo!r}",
                    )
                )
        return out
