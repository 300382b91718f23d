"""§4 experiment: route announcement convergence vs SDN deployment.

Announcing a new prefix converges fast in plain BGP — updates flood
outward with no path exploration, so the only MRAI cost is the second
round of longer-path advertisements most ASes ignore.  Centralization
therefore helps little here (and the controller's recompute delay adds
a small floor), the "smaller reductions" of §4.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .common import AnnouncementScenario, SweepResult, run_fraction_sweep

__all__ = ["announcement_sweep", "DEFAULT_SDN_COUNTS"]

DEFAULT_SDN_COUNTS = (0, 2, 4, 6, 8, 10, 12, 14, 15)


def announcement_sweep(
    *,
    n: int = 16,
    sdn_counts: Optional[Sequence[int]] = None,
    seed_base: int = 300,
    **sweep,
) -> SweepResult:
    """The announcement counterpart of Fig. 2 (text-only result in §4).

    Options as in :func:`repro.experiments.withdrawal_sweep`.
    """
    if sdn_counts is None:
        max_sdn = n - 1
        sdn_counts = sorted(
            {c for c in DEFAULT_SDN_COUNTS if c < max_sdn} | {max_sdn}
        )
    return run_fraction_sweep(
        AnnouncementScenario, n=n, sdn_counts=list(sdn_counts),
        seed_base=seed_base, **sweep,
    )
