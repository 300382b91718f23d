"""Fault-suite sweeps: canned fault scenarios vs SDN deployment fraction.

The paper's sweeps measure one clean routing event; this experiment
asks the same question under *dirty* conditions — a whole fault suite
(link outages, crashes, controller failures) plays out against each
deployment fraction, with the invariant checker validating routing
state at every quiet boundary.  Runs are strict by default: an
invariant violation fails the run, so broken state shows up in
``SweepPoint.failures`` instead of silently skewing medians.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..faults.engine import FaultInjector, ScenarioResult
from ..faults.scenarios import canned_names, get_canned
from ..faults.schedule import FaultSchedule
from ..framework.experiment import Experiment
from .common import Scenario, SweepResult, run_fraction_sweep

__all__ = [
    "FaultSuiteScenario",
    "DEFAULT_FRACTIONS",
    "fault_suite_scenario",
    "sdn_counts_for_fractions",
    "scenarios_sweep",
]

#: the comparison the paper's framing suggests: none / half / full SDN.
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.0, 0.5, 1.0)


@dataclass
class FaultSuiteScenario(Scenario):
    """A canned fault suite as a sweepable scenario.

    The measured "event" is the whole suite: every fault is injected on
    schedule, each gets its own measurement window, and the invariant
    checker runs at quiet boundaries plus once after the final settle.
    ``faults`` (a canonical schedule tuple) overrides the canned
    schedule — it is populated automatically when a sweep embeds a
    schedule in its :class:`~repro.runner.RunSpec`.  With ``suite``
    None the scenario is ``faults`` alone: ``origins`` and
    ``reserved_legacy`` are the caller's (a canned suite supplies both).
    """

    name: str = "faults"
    suite: Optional[str] = "gateway-outage"
    fault_seed: int = 0
    faults: Optional[tuple] = None
    #: ASNs announcing their own /24 before the faults start.
    origins: Tuple[int, ...] = ()
    check_invariants: bool = True
    #: raise on violations so sweep runs fail loudly (the runner turns
    #: the raise into a FailedRun rather than aborting the sweep).
    strict: bool = True
    #: the last run's full result (reports, violations, settle instant).
    result: Optional[ScenarioResult] = None

    def __post_init__(self) -> None:
        if self.suite is None:
            return
        canned = get_canned(self.suite)
        self.name = f"faults:{self.suite}"
        self.reserved_legacy = frozenset(canned.reserved)
        self.origins = canned.origins

    def schedule(self) -> FaultSchedule:
        if self.faults is not None:
            return FaultSchedule.from_canonical(self.faults)
        return get_canned(self.suite).schedule(self.fault_seed)

    def prepare(self, exp: Experiment) -> None:
        """Give the checker real state: each origin announces its /24."""
        for asn in self.origins:
            exp.announce(asn, exp.as_prefix(asn))
        exp.wait_converged()

    def event(self, exp: Experiment) -> None:
        self._injector = FaultInjector(
            exp, self.schedule(),
            check_invariants=self.check_invariants, strict=self.strict,
        )
        self._injector.inject()

    def finish(self, exp: Experiment) -> None:
        # the injector holds the experiment: keep only its result
        injector, self._injector = self._injector, None
        self.result = injector.finalize()


def fault_suite_scenario(
    suite: str = "gateway-outage", fault_seed: int = 0
) -> FaultSuiteScenario:
    """Module-level factory (picklable/digestable) for sweep specs."""
    return FaultSuiteScenario(suite=suite, fault_seed=fault_seed)


def sdn_counts_for_fractions(
    n: int, fractions: Sequence[float], reserved: frozenset
) -> list:
    """Fractions -> distinct convertible counts; 1.0 means "every
    convertible AS" (the reserved actors never convert)."""
    max_sdn = n - len(reserved)
    counts = []
    for fraction in fractions:
        count = min(round(fraction * n), max_sdn)
        if count not in counts:
            counts.append(count)
    return counts


def scenarios_sweep(
    *,
    n: int = 16,
    suites: Optional[Sequence[str]] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    runs: int = 3,
    fault_seed: int = 0,
    mrai: float = 5.0,
    **sweep,
) -> Dict[str, SweepResult]:
    """Every canned suite (or a chosen subset) against each fraction.

    Defaults to MRAI 5 s rather than the paper's 30 s: fault suites pack
    several events a few seconds apart, and the shorter MRAI keeps
    consecutive faults from trivially overlapping (overlap still works,
    it just measures the composite instead of each fault).  ``sweep``
    is forwarded to :func:`run_fraction_sweep` (``seed_base``,
    ``topology_factory``, runner and grid-wide spec options).
    """
    results: Dict[str, SweepResult] = {}
    for suite in suites if suites is not None else canned_names():
        factory = functools.partial(
            fault_suite_scenario, suite=suite, fault_seed=fault_seed
        )
        probe = factory()
        results[suite] = run_fraction_sweep(
            factory,
            n=n,
            sdn_counts=sdn_counts_for_fractions(
                n, fractions, probe.reserved_legacy
            ),
            runs=runs,
            mrai=mrai,
            **sweep,
        )
    return results
