"""Deployment-placement experiment: *which* ASes should centralize?

The paper sweeps *how many* ASes join the cluster on a clique, where
every AS is interchangeable.  On realistic, degree-skewed topologies
(Barabási–Albert, CAIDA-style), the *choice* of members matters: a
high-degree transit AS participates in far more path exploration than a
stub.  This experiment fixes the deployment budget and compares
placement strategies — the question an operator deploying the paper's
system incrementally would actually ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..analysis.stats import BoxplotStats
from ..topology.builders import barabasi_albert
from ..topology.model import Topology
from .common import (
    SweepPoint,
    WithdrawalScenario,
    run_groups,
    seeded_specs,
)

__all__ = ["PlacementResult", "placement_sweep", "STRATEGIES", "pick_members"]


def _by_degree(topology: Topology, k: int, excluded: frozenset) -> frozenset:
    """Highest-degree ASes first (hub placement)."""
    ranked = sorted(
        (a for a in topology.asns if a not in excluded),
        key=lambda a: (-topology.degree(a), a),
    )
    return frozenset(ranked[:k])


def _by_low_degree(topology: Topology, k: int, excluded: frozenset) -> frozenset:
    """Lowest-degree ASes first (edge placement — the control)."""
    ranked = sorted(
        (a for a in topology.asns if a not in excluded),
        key=lambda a: (topology.degree(a), a),
    )
    return frozenset(ranked[:k])


def _spread(topology: Topology, k: int, excluded: frozenset) -> frozenset:
    """Deterministic arbitrary spread (every third AS): placement chosen
    with no topology knowledge at all."""
    candidates = [a for a in topology.asns if a not in excluded]
    return frozenset(candidates[::3][:k] + candidates[1::3][: max(0, k - len(candidates[::3]))])


#: name -> picker(topology, k, excluded_asns) -> member set
STRATEGIES: Dict[str, Callable] = {
    "hubs-first": _by_degree,
    "stubs-first": _by_low_degree,
    "spread": _spread,
}


def pick_members(
    strategy: str, topology: Topology, k: int, excluded: frozenset
) -> frozenset:
    try:
        picker = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    members = picker(topology, k, excluded)
    if len(members) < k:
        raise ValueError(
            f"cannot place {k} members with {len(members)} candidates"
        )
    return members


@dataclass
class PlacementResult:
    """Withdrawal convergence for one placement strategy."""

    strategy: str
    sdn_count: int
    members: frozenset
    #: the strategy's group of trials (``point.failures``: lost ones).
    point: SweepPoint
    mean_member_degree: float

    @property
    def convergence(self) -> BoxplotStats:
        """Boxplot summary over the strategy's runs."""
        return self.point.stats


def _ba_seed11(n: int) -> Topology:
    # module-level (not a lambda) so sweep specs can pickle it to
    # worker processes and digest it for the result cache.
    return barabasi_albert(n, 2, seed=11)


def placement_sweep(
    *,
    n: int = 16,
    sdn_count: int = 5,
    runs: int = 5,
    mrai: float = 30.0,
    seed_base: int = 800,
    topology_factory: Callable[[int], Topology] = _ba_seed11,
    strategies: Sequence[str] = ("hubs-first", "stubs-first", "spread"),
    **runner,
) -> List[PlacementResult]:
    """Same budget, different member choices, same withdrawal event.

    Member sets are picked up front (the topology factory is
    deterministic) and carried in each spec explicitly; the grid is one
    :func:`~.common.run_groups` call, a group per strategy, and
    ``runner`` is forwarded to it.
    """
    sample = topology_factory(n)
    chosen: Dict[str, frozenset] = {
        strategy: pick_members(
            strategy, sample, sdn_count,
            WithdrawalScenario().reserved_legacy,
        )
        for strategy in strategies
    }
    points, _ = run_groups(
        {
            strategy: seeded_specs(
                runs, seed_base, f"placement-{strategy}",
                scenario_factory=WithdrawalScenario,
                topology_factory=topology_factory,
                n=n, sdn_count=sdn_count, mrai=mrai,
                sdn_members=tuple(sorted(members)),
            )
            for strategy, members in chosen.items()
        },
        **runner,
    )
    return [
        PlacementResult(
            strategy=strategy,
            sdn_count=sdn_count,
            members=members,
            point=points[strategy],
            mean_member_degree=(
                sum(sample.degree(a) for a in members) / max(len(members), 1)
            ),
        )
        for strategy, members in chosen.items()
    ]
