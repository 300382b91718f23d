"""Fig. 2 experiment: route withdrawal convergence vs SDN deployment.

"In Fig. 2 we show how the convergence time can be linearly reduced in a
route withdrawal experiment with different percentages of SDN deployment
in a 16-node clique ... boxplots over 10 runs."

Mechanism being measured: a withdrawal on a transit-all clique triggers
BGP path exploration — every legacy AS serially walks ever-longer stale
alternatives, each step paced by MRAI.  Every AS moved under the IDR
controller stops exploring (the controller recomputes Dijkstra once), so
convergence time falls roughly linearly in the converted fraction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .common import SweepResult, WithdrawalScenario, run_fraction_sweep

__all__ = ["withdrawal_sweep", "DEFAULT_SDN_COUNTS"]

#: Even steps over the 16-AS clique (origin stays legacy, so 15 is max).
DEFAULT_SDN_COUNTS = (0, 2, 4, 6, 8, 10, 12, 14, 15)


def withdrawal_sweep(
    *,
    n: int = 16,
    sdn_counts: Optional[Sequence[int]] = None,
    seed_base: int = 100,
    **sweep,
) -> SweepResult:
    """Reproduce Fig. 2; returns per-fraction convergence boxplot data.

    ``sweep`` is forwarded to :func:`run_fraction_sweep`: ``runs``, the
    runner options (``workers``/``cache``/``progress``/``timeout``/
    ``retries``/``registry``; results are bit-identical at any worker
    count, see ``docs/runner.md``) and any grid-wide
    :class:`~repro.runner.RunSpec` option (``mrai``, ``metrics``,
    ``spans``, ``anatomy``, ...).
    """
    if sdn_counts is None:
        max_sdn = n - 1
        sdn_counts = sorted(
            {c for c in DEFAULT_SDN_COUNTS if c < max_sdn} | {max_sdn}
        )
    return run_fraction_sweep(
        WithdrawalScenario, n=n, sdn_counts=list(sdn_counts),
        seed_base=seed_base, **sweep,
    )
