"""Ablations of the two design insights called out in §3.

1. **MRAI** — BGP's rate limiter is exactly what makes withdrawal
   exploration slow; sweeping MRAI with and without an SDN cluster shows
   centralization's benefit scales with MRAI (the thing it bypasses).
2. **Delayed recomputation** — the controller's debounce trades reaction
   latency for stability: longer delays coalesce bursty external input
   into fewer recomputations/flow pushes, at the cost of a convergence
   floor.  Sweeping the delay quantifies both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.stats import BoxplotStats
from ..topology.builders import clique
from .common import (
    SweepPoint,
    WithdrawalScenario,
    relative_reduction,
    run_groups,
    seeded_specs,
)

__all__ = ["MraiPoint", "mrai_sweep", "RecomputePoint", "recompute_delay_sweep"]


@dataclass
class MraiPoint:
    """Withdrawal convergence at one MRAI value, with/without SDN.

    Note the expected *U-shape* for pure BGP (Griffin & Premore): at
    MRAI 0 nothing rate-limits path exploration, so the update count
    explodes and convergence is CPU-bound; at large MRAI exploration is
    slow because each round waits.  The sweet spot is a small nonzero
    MRAI — and the hybrid sits near the controller floor throughout.
    """

    mrai: float
    sdn_count: int
    #: the two groups at this MRAI: no SDN, and ``sdn_count`` converted.
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
    def pure_updates(self) -> float:
        """Median per-run update count with no AS converted."""
        return self.baseline.median_updates

    @property
    def hybrid_updates(self) -> float:
        """Median per-run update count with ``sdn_count`` converted."""
        return self.deployed.median_updates

    @property
    def reduction(self) -> float:
        """Relative improvement of hybrid over pure BGP."""
        return relative_reduction(self.baseline, self.deployed)


def mrai_sweep(
    *,
    n: int = 16,
    mrai_values: Sequence[float] = (0.0, 5.0, 15.0, 30.0),
    sdn_count: int = 8,
    runs: int = 5,
    seed_base: int = 400,
    **runner,
) -> List[MraiPoint]:
    """Withdrawal convergence vs MRAI, pure BGP vs half-SDN hybrid.

    One :func:`~.common.run_groups` call, a group per
    ``(mrai, sdn_count)``; ``runner`` is forwarded to it.
    """
    points, _ = run_groups(
        {
            (mrai, k): seeded_specs(
                runs, seed_base + int(mrai * 10) + k, f"mrai={mrai:g} sdn={k}",
                scenario_factory=WithdrawalScenario, topology_factory=clique,
                n=n, sdn_count=k, mrai=mrai,
            )
            for mrai in mrai_values
            for k in (0, sdn_count)
        },
        **runner,
    )
    return [
        MraiPoint(
            mrai=mrai,
            sdn_count=sdn_count,
            baseline=points[mrai, 0],
            deployed=points[mrai, sdn_count],
        )
        for mrai in mrai_values
    ]


@dataclass
class RecomputePoint:
    """Effect of one controller recompute-delay setting."""

    delay: float
    #: the delay's group of trials (``point.failures``: lost ones).
    point: SweepPoint

    @property
    def convergence(self) -> BoxplotStats:
        """Boxplot summary over the delay's runs."""
        return self.point.stats

    @property
    def recomputations(self) -> float:
        """Mean controller recomputations per run."""
        runs = self.point.runs
        return sum(r.measurement.recomputations for r in runs) / len(runs)

    @property
    def flow_mods(self) -> float:
        """Mean flow-mod pushes per run."""
        mods = [r.measurement.extra.get("flow_mods", 0) for r in self.point.runs]
        return sum(mods) / len(mods)


def recompute_delay_sweep(
    *,
    n: int = 16,
    delays: Sequence[float] = (0.0, 0.5, 2.0, 5.0, 15.0),
    sdn_count: int = 8,
    runs: int = 5,
    mrai: float = 30.0,
    seed_base: int = 500,
    **runner,
) -> List[RecomputePoint]:
    """Withdrawal convergence + controller churn vs recompute delay.

    One :func:`~.common.run_groups` call, a group per delay; ``runner``
    is forwarded to it.
    """
    points, _ = run_groups(
        {
            delay: seeded_specs(
                runs, seed_base + int(delay * 100), f"recompute {delay:g}s",
                scenario_factory=WithdrawalScenario, topology_factory=clique,
                n=n, sdn_count=sdn_count, mrai=mrai, recompute_delay=delay,
            )
            for delay in delays
        },
        **runner,
    )
    return [RecomputePoint(delay=d, point=points[d]) for d in delays]
