"""§4 experiment: route fail-over convergence vs SDN deployment.

"On the other hand, route fail-over and announcement experiments did not
show this linear improvement, but smaller reductions."

On a clique, failing the victim's direct link to the origin leaves many
equal-length (2-hop) alternatives immediately available, so BGP
exploration is shallow — there is far less serialized MRAI work for
centralization to remove, hence the smaller reduction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .common import FailoverScenario, SweepResult, run_fraction_sweep

__all__ = ["failover_sweep", "DEFAULT_SDN_COUNTS"]

#: Origin and victim stay legacy, so 14 is the max on a 16-clique.
DEFAULT_SDN_COUNTS = (0, 2, 4, 6, 8, 10, 12, 14)


def failover_sweep(
    *,
    n: int = 16,
    sdn_counts: Optional[Sequence[int]] = None,
    seed_base: int = 200,
    **sweep,
) -> SweepResult:
    """The fail-over counterpart of Fig. 2 (text-only result in §4).

    Options as in :func:`repro.experiments.withdrawal_sweep`.
    """
    if sdn_counts is None:
        # origin + primary gateway reserved; the backup gateway is the
        # last convertible AS (n - 1 total candidates).
        max_sdn = n - 1
        sdn_counts = sorted(
            {c for c in DEFAULT_SDN_COUNTS if c < max_sdn} | {max_sdn}
        )
    return run_fraction_sweep(
        FailoverScenario, n=n, sdn_counts=list(sdn_counts),
        seed_base=seed_base, **sweep,
    )
