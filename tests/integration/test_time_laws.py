"""Exact time laws: the paper's Fig. 2 withdrawal with the MRAI jitter off.

With ``mrai_jitter = 0`` and the paper's Quagga pacing
(``paper_timers``), a withdrawal on an n-AS clique with k SDN members
converges in

    t(n, k) = max(n - 2 - k, 1) * MRAI + delta    for 0 <= k <= n - 2,
    t(n, n - 1) = delta.

At k = 0, delta is propagation and processing (under 0.06 s); with any
member it is the controller's 0.5 s recompute debounce plus processing
(under 0.6 s).  So each SDN member removes exactly one MRAI round of
path exploration.  The committed Fig. 2 result shows this law blurred
by the jitter; an analytical model of the jittered sweep must reduce
to it at jitter 0.

The law is pinned at the paper's MRAI of 30 s and at 5 s.  The 5 s
cases catch a cluster speaker that paces its exports at 30 s: at a
legacy MRAI of 30 s such pacing runs in phase with the rounds and
moves no convergence time.
"""

import dataclasses

import pytest

from repro.experiments.common import (
    WithdrawalScenario,
    batch_config,
    paper_config,
    run_scenario_full,
    sdn_set_for,
)
from repro.topology.builders import clique


def jitter_free(config):
    return dataclasses.replace(
        config, timers=dataclasses.replace(config.timers, mrai_jitter=0.0)
    )


def mrai_rounds(n: int, k: int) -> int:
    return 0 if k == n - 1 else max(n - 2 - k, 1)


@pytest.mark.parametrize(
    "n, mrai",
    [(6, 30.0), (8, 30.0), (12, 30.0), (16, 30.0), (6, 5.0), (8, 5.0)],
)
def test_each_member_removes_one_mrai_round(n, mrai):
    config = batch_config(jitter_free(paper_config(seed=1, mrai=mrai)))
    broken = []
    for k in range(n):
        topology = clique(n)
        scenario = WithdrawalScenario()
        members = sdn_set_for(topology, k, scenario.reserved_legacy)
        measurement, _, _ = run_scenario_full(
            scenario, topology, members, config
        )
        t = measurement.convergence_time
        delta = t - mrai_rounds(n, k) * mrai
        low, high = (0.0, 0.06) if k == 0 else (0.5, 0.6)
        if not low <= delta < high:
            broken.append(f"k={k}: t={t:.3f}s, delta={delta:.3f}s")
    assert not broken, (
        f"n={n}: t(n, k) = max(n - 2 - k, 1) * {mrai:g}s + delta broken at "
        + "; ".join(broken)
    )
