"""Sub-cluster resilience experiment (design goal §2).

"We want to support disjoint AS sub-clusters controlled by the same
controller, so that an intra-cluster link failure does not isolate the
controlled ASes: paths over the legacy Internet could still connect the
sub-clusters."

Topology: a bar-bell — two SDN members on each side joined by a single
intra-cluster link, with legacy ASes attached to both sides.  Failing
the middle link splits the cluster into two sub-clusters; the controller
must reroute cross-side traffic over the legacy world, and connectivity
must survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..framework.convergence import ConvergenceMeasurement
from ..framework.experiment import Experiment
from ..topology.model import Topology
from .common import Scenario, paper_config, run_scenario_once

__all__ = ["SubClusterResult", "barbell_topology", "run_subcluster_experiment"]

#: ASNs in the bar-bell: 1-2 left members, 3-4 right members, 5-8 legacy.
LEFT_MEMBERS = (1, 2)
RIGHT_MEMBERS = (3, 4)
LEGACY = (5, 6, 7, 8)
BRIDGE = (2, 3)


def barbell_topology() -> Topology:
    """Two 2-member SDN sides bridged by one intra-cluster link.

    Legacy AS5/AS6 attach to the left side, AS7/AS8 to the right, and a
    legacy backbone 5-6-7-8 provides the detour path that must carry
    traffic when the bridge fails.
    """
    topo = Topology(name="barbell")
    for asn in (*LEFT_MEMBERS, *RIGHT_MEMBERS, *LEGACY):
        topo.add_as(asn)
    topo.add_link(1, 2)           # left intra-cluster
    topo.add_link(3, 4)           # right intra-cluster
    topo.add_link(*BRIDGE)        # the bridge that will fail
    topo.add_link(1, 5)
    topo.add_link(2, 6)
    topo.add_link(3, 7)
    topo.add_link(4, 8)
    topo.add_link(5, 6)
    topo.add_link(6, 7)           # legacy detour across the middle
    topo.add_link(7, 8)
    return topo


@dataclass
class SubClusterResult:
    """Outcome of the split experiment."""

    measurement: ConvergenceMeasurement
    sub_clusters_before: List[Tuple[str, ...]]
    sub_clusters_after: List[Tuple[str, ...]]
    reachable_before: bool
    reachable_after: bool
    #: data-plane path of left-member -> right-member traffic post-split.
    cross_path_after: List[str]


@dataclass
class SubClusterScenario(Scenario):
    """The bridge link fails; the sub-clusters and reachability are
    read on either side of it."""

    name: str = "subcluster"
    result: Optional[SubClusterResult] = None

    def prepare(self, exp: Experiment) -> None:
        self._before = _sub_clusters(exp)
        self._reachable_before = exp.all_reachable()

    def event(self, exp: Experiment) -> None:
        exp.fail_link(*BRIDGE)

    def finish(self, exp: Experiment) -> None:
        cross = exp.reachable(LEFT_MEMBERS[0], RIGHT_MEMBERS[1])
        self.result = SubClusterResult(
            measurement=None,  # run_subcluster_experiment's
            sub_clusters_before=self._before,
            sub_clusters_after=_sub_clusters(exp),
            reachable_before=self._reachable_before,
            reachable_after=exp.all_reachable(),
            cross_path_after=cross.hops if cross.reached else [],
        )


def _sub_clusters(exp: Experiment) -> List[Tuple[str, ...]]:
    return [
        tuple(sorted(c)) for c in exp.controller.switch_graph.sub_clusters()
    ]


def run_subcluster_experiment(
    *, seed: int = 0, mrai: float = 5.0, recompute_delay: float = 0.2
) -> SubClusterResult:
    """Fail the bridge link and verify the legacy detour carries traffic."""
    config = paper_config(seed=seed, mrai=mrai,
                          recompute_delay=recompute_delay)
    split = SubClusterScenario()
    measurement = run_scenario_once(
        split, barbell_topology(),
        frozenset(LEFT_MEMBERS + RIGHT_MEMBERS), config,
    )
    split.result.measurement = measurement
    return split.result
