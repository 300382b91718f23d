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
from typing import List

from ..controller.idr import ControllerConfig
from ..faults.engine import FaultInjector
from ..faults.schedule import FaultSchedule
from ..framework.convergence import measure_event
from ..framework.experiment import Experiment
from ..topology.builders import clique
from .common import paper_config

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
    topology = clique(n)
    members = set(range(n - sdn_count + 1, n + 1))
    config = paper_config(seed=seed, mrai=mrai,
                          recompute_delay=recompute_delay)
    config.controller = ControllerConfig(
        recompute_delay=recompute_delay, extend_on_burst=extend_on_burst
    )
    exp = Experiment(topology, sdn_members=members, config=config).start()
    controller = exp.controller
    speaker_sessions = exp.speaker.sessions.values()

    prefix = exp.announce(1)
    exp.wait_converged()

    recomputes_before = controller.recomputations
    flow_mods_before = controller.flow_mods_sent
    speaker_tx_before = sum(s.updates_sent for s in speaker_sessions)

    # The burst is a prefix_flap fault schedule: withdraw first, one
    # flip every ``flap_interval`` — bit-identical to the hand-scheduled
    # loop this replaced (pinned by the differential oracle tests).
    storm_schedule = FaultSchedule().prefix_flap(
        1, at=0.0, count=flaps, interval=flap_interval,
        prefix=str(prefix), first="withdraw",
    )

    def storm() -> None:
        FaultInjector(exp, storm_schedule, check_invariants=False).inject()

    t_last_flap_offset = (flaps - 1) * flap_interval
    measurement = measure_event(exp, storm)
    settle_after_storm = max(
        0.0, measurement.convergence_time - t_last_flap_offset
    )

    # Even flap count ends with an announce (last flip index is odd),
    # odd count ends withdrawn; verify the data plane agrees either way.
    ends_announced = flaps % 2 == 0
    target = prefix.host(0)
    walks = [
        exp.net.trace_path(exp.node(asn), target).reached
        for asn in exp.topology.asns
        if asn != 1
    ]
    final_ok = all(walks) if ends_announced else not any(walks)
    return FlapStormResult(
        recompute_delay=recompute_delay,
        extend_on_burst=extend_on_burst,
        flaps=flaps,
        recomputations=controller.recomputations - recomputes_before,
        flow_mods=controller.flow_mods_sent - flow_mods_before,
        speaker_updates=(
            sum(s.updates_sent for s in speaker_sessions) - speaker_tx_before
        ),
        settle_after_storm=settle_after_storm,
        final_state_correct=final_ok,
    )


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
    results: List[FlapStormResult] = []
    for extend in (False, True):
        for delay in delays:
            results.append(
                run_flap_storm(
                    n=n, sdn_count=sdn_count, flaps=flaps,
                    flap_interval=flap_interval,
                    recompute_delay=delay, extend_on_burst=extend,
                    seed=seed,
                )
            )
    return results
