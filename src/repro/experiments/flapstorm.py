"""Flap-storm experiment: bursty external input vs the controller.

§3's second design insight is the *delayed recomputation* that
"rate-limit[s] route flaps due to bursts in external BGP input".  This
experiment generates the burst: an origin AS flaps a prefix (announce/
withdraw) ``flaps`` times at a given interval, and we measure how the
cluster's controller rides it out — recomputations performed, flow-mod
churn, and time to final convergence — for both debounce disciplines
(rate-limit style vs extend-on-burst) and a range of delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..faults.engine import FaultInjector
from ..faults.schedule import FaultSchedule
from ..framework.experiment import Experiment
from ..topology.builders import clique
from .common import Scenario, paper_config, run_scenario_once

__all__ = ["FlapStormResult", "run_flap_storm", "flap_storm_sweep"]


@dataclass
class FlapStormResult:
    """Outcome of one storm run."""

    recompute_delay: float
    extend_on_burst: bool
    flaps: int
    #: controller recomputation rounds consumed by the storm.
    recomputations: int
    #: FlowMod/FlowRemove messages pushed to switches.
    flow_mods: int
    #: BGP updates the cluster re-advertised outward.
    speaker_updates: int
    #: time from the last flap to full convergence.
    settle_after_storm: float
    #: the prefix ends announced; True if everyone has the route.
    final_state_correct: bool

    @property
    def coalescing_ratio(self) -> float:
        """Storm events per recomputation (higher = better coalescing)."""
        if self.recomputations == 0:
            return float(self.flaps)
        return self.flaps / self.recomputations


@dataclass
class FlapStormScenario(Scenario):
    """AS1 announces a prefix, then flaps it: ``flaps`` flips of a
    ``prefix_flap`` fault, withdraw first, ``interval`` apart."""

    name: str = "flapstorm"
    flaps: int = 10
    interval: float = 0.2
    result: Optional[FlapStormResult] = None

    def prepare(self, exp: Experiment) -> None:
        self.prefix = exp.announce(1)
        exp.wait_converged()
        self._before = _churn(exp)

    def event(self, exp: Experiment) -> None:
        schedule = FaultSchedule().prefix_flap(
            1, at=0.0, count=self.flaps, interval=self.interval,
            prefix=str(self.prefix), first="withdraw",
        )
        FaultInjector(exp, schedule, check_invariants=False).inject()

    def finish(self, exp: Experiment) -> None:
        recomputes, flow_mods, speaker_tx = (
            after - before for after, before in zip(_churn(exp), self._before)
        )
        # Even flap count ends with an announce (last flip index is
        # odd), odd count ends withdrawn; the data plane must agree.
        walks = [
            exp.net.trace_path(exp.node(asn), self.prefix.host(0)).reached
            for asn in exp.topology.asns
            if asn != 1
        ]
        config = exp.controller.config
        self.result = FlapStormResult(
            recompute_delay=config.recompute_delay,
            extend_on_burst=config.extend_on_burst,
            flaps=self.flaps,
            recomputations=recomputes,
            flow_mods=flow_mods,
            speaker_updates=speaker_tx,
            settle_after_storm=0.0,  # the measurement's: run_flap_storm's
            final_state_correct=(
                all(walks) if self.flaps % 2 == 0 else not any(walks)
            ),
        )


def _churn(exp: Experiment) -> Tuple[int, int, int]:
    """Recomputations, flow-mods and speaker UPDATEs sent so far."""
    return (
        exp.controller.recomputations,
        exp.controller.flow_mods_sent,
        sum(s.updates_sent for s in exp.speaker.sessions.values()),
    )


def run_flap_storm(
    *,
    n: int = 8,
    sdn_count: int = 4,
    flaps: int = 10,
    flap_interval: float = 0.2,
    recompute_delay: float = 0.5,
    extend_on_burst: bool = False,
    mrai: float = 5.0,
    seed: int = 0,
) -> FlapStormResult:
    """Flap a prefix from AS1 and measure the controller's churn."""
    config = paper_config(seed=seed, mrai=mrai,
                          recompute_delay=recompute_delay)
    config.controller.extend_on_burst = extend_on_burst
    storm = FlapStormScenario(flaps=flaps, interval=flap_interval)
    measurement = run_scenario_once(
        storm, clique(n), frozenset(range(n - sdn_count + 1, n + 1)), config
    )
    storm.result.settle_after_storm = max(
        0.0, measurement.convergence_time - (flaps - 1) * flap_interval
    )
    return storm.result


def flap_storm_sweep(
    *,
    n: int = 8,
    sdn_count: int = 4,
    flaps: int = 10,
    flap_interval: float = 0.2,
    delays=(0.1, 0.5, 2.0),
    seed: int = 0,
) -> List[FlapStormResult]:
    """Storm the cluster across delays and both debounce disciplines."""
    return [
        run_flap_storm(
            n=n, sdn_count=sdn_count, flaps=flaps,
            flap_interval=flap_interval,
            recompute_delay=delay, extend_on_burst=extend, seed=seed,
        )
        for extend in (False, True)
        for delay in delays
    ]
