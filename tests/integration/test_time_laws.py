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

An announcement has no path exploration to remove: a new prefix reaches
every AS along shortest paths, which no MRAI timer delays, so at the
paper's configuration (jitter on) it converges in delta alone — under
0.07 s at k = 0 and 0.5 <= t < 0.6 s with any member, the recompute
debounce plus processing.

A fail-over explores only the gap between the primary and the backup
path, and no member shortens it until the backup gateway (AS2) joins
the cluster.  On a 16-AS clique at jitter 0 it takes, in whole MRAI
rounds plus a delta under 0.6 s (table ``FAILOVER_ROUNDS``), two
control-plane rounds up to k = 13 and one after, while the state
converges in one round at k = 0, two for k = 1-6 (the one-round bump),
one for k = 7-14 and none at all at k = 15.
"""

import dataclasses

import pytest

from repro.experiments.common import (
    AnnouncementScenario,
    FailoverScenario,
    WithdrawalScenario,
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
    config = jitter_free(paper_config(seed=1, mrai=mrai))
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


@pytest.mark.parametrize("n", [6, 8, 12, 16])
def test_an_announcement_converges_in_one_debounce(n):
    config = paper_config(seed=1)
    broken = []
    for k in range(n):
        topology = clique(n)
        scenario = AnnouncementScenario()
        members = sdn_set_for(topology, k, scenario.reserved_legacy)
        measurement, _, _ = run_scenario_full(
            scenario, topology, members, config
        )
        t = measurement.convergence_time
        low, high = (0.0, 0.07) if k == 0 else (0.5, 0.6)
        if not low <= t < high:
            broken.append(f"k={k}: t={t:.3f}s")
    assert not broken, f"n={n}: announcement convergence broken at " + (
        "; ".join(broken)
    )


def failover_rounds(k: int) -> tuple:
    """(control-plane, state) convergence of a 16-AS clique fail-over
    with k SDN members, in whole MRAI rounds."""
    control = 2 if k <= 13 else 1
    if k == 0 or 7 <= k <= 14:
        state = 1
    elif k == 15:
        state = 0
    else:
        state = 2
    return control, state


@pytest.mark.parametrize("seed", [1, 200])
def test_failover_gains_nothing_until_the_backup_gateway_joins(seed):
    mrai = 30.0
    config = jitter_free(paper_config(seed=seed, mrai=mrai))
    broken = []
    for k in range(16):
        scenario = FailoverScenario()
        topology = scenario.topology(16)
        members = sdn_set_for(topology, k, scenario.reserved_legacy)
        measurement, _, _ = run_scenario_full(
            scenario, topology, members, config
        )
        readings = (
            measurement.convergence_time,
            measurement.state_convergence_time,
        )
        for what, t, rounds in zip(
            ("control plane", "state"), readings, failover_rounds(k)
        ):
            delta = t - rounds * mrai
            if not 0.0 <= delta < 0.6:
                broken.append(
                    f"k={k} {what}: t={t:.3f}s, expected {rounds} "
                    f"round(s), delta={delta:.3f}s"
                )
    assert not broken, (
        f"seed {seed}: fail-over time law broken at " + "; ".join(broken)
    )
