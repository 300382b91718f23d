"""Topology-family experiment (§3: data-driven and model topologies).

The paper's framework builds topologies "from the iPlane Inter-PoP links
and the CAIDA AS Relationship datasets" as well as theoretical models.
This experiment runs the same withdrawal event across topology families
— clique, Barabási–Albert, synthetic CAIDA (with Gao-Rexford policies),
synthetic iPlane — comparing how much path exploration each admits and
how much centralizing a fixed fraction of ASes helps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.stats import BoxplotStats
from ..topology.builders import barabasi_albert, clique
from ..topology.caida import synthetic_caida_topology
from ..topology.iplane import synthetic_iplane_topology
from ..topology.model import Topology
from .common import (
    FailedRun,
    SweepPoint,
    WithdrawalScenario,
    relative_reduction,
    run_groups,
    seeded_specs,
)

__all__ = ["TopologyFamilyResult", "topology_family_sweep", "FAMILIES"]


def _ba(n: int) -> Topology:
    # module-level (not a lambda) so sweep specs can pickle it to
    # worker processes and digest it for the result cache.
    return barabasi_albert(n, 2, seed=7)


def _caida(n_unused: int) -> Topology:
    return synthetic_caida_topology(tier1=3, transit=5, stubs=8, seed=7)


def _iplane(n: int) -> Topology:
    return synthetic_iplane_topology(n_as=n, seed=7)


#: name -> (topology factory(n), policy_mode)
FAMILIES: Dict[str, tuple] = {
    "clique": (clique, "flat"),
    "barabasi-albert": (_ba, "flat"),
    "caida-synth": (_caida, "gao_rexford"),
    "iplane-synth": (_iplane, "flat"),
}


@dataclass
class TopologyFamilyResult:
    """Withdrawal convergence on one topology family."""

    family: str
    n_ases: int
    n_links: int
    sdn_count: int
    #: the family's two groups: no SDN, and ``sdn_count`` ASes converted.
    baseline: SweepPoint
    deployed: SweepPoint

    @property
    def pure_bgp(self) -> BoxplotStats:
        """Convergence with no AS converted."""
        return self.baseline.stats

    @property
    def hybrid(self) -> BoxplotStats:
        """Convergence with ``sdn_count`` ASes converted."""
        return self.deployed.stats

    @property
    def reduction(self) -> float:
        """Relative improvement of hybrid over pure BGP."""
        return relative_reduction(self.baseline, self.deployed)

    @property
    def failures(self) -> List[FailedRun]:
        """Every trial of this family that failed for good."""
        return self.baseline.failures + self.deployed.failures


def topology_family_sweep(
    *,
    n: int = 16,
    sdn_fraction: float = 0.5,
    runs: int = 5,
    mrai: float = 30.0,
    seed_base: int = 600,
    families: Optional[Dict[str, tuple]] = None,
    **runner,
) -> List[TopologyFamilyResult]:
    """Withdrawal convergence per family, 0% vs ``sdn_fraction`` SDN.

    The whole grid is one :func:`~.common.run_groups` call, a group per
    ``(family, sdn_count)``; ``runner`` is forwarded to it (``workers``,
    ``cache``, ``progress``, ``timeout``, ``retries``, ``registry``).
    """
    grid: Dict[str, tuple] = {}  # family -> (sample topology, sdn_count)
    groups: Dict[tuple, list] = {}
    for family, (factory, policy_mode) in (families or FAMILIES).items():
        sample = factory(n)
        sdn_count = int(len(sample) * sdn_fraction)
        grid[family] = (sample, sdn_count)
        for k in (0, sdn_count):
            groups[family, k] = seeded_specs(
                runs, seed_base + k, f"family-{family} sdn={k}",
                scenario_factory=functools.partial(
                    WithdrawalScenario, origin=sample.asns[0]
                ),
                topology_factory=factory,
                n=n, sdn_count=k, mrai=mrai, policy_mode=policy_mode,
            )
    points, _ = run_groups(groups, **runner)
    return [
        TopologyFamilyResult(
            family=family,
            n_ases=len(sample),
            n_links=len(sample.links),
            sdn_count=sdn_count,
            baseline=points[family, 0],
            deployed=points[family, sdn_count],
        )
        for family, (sample, sdn_count) in grid.items()
    ]
