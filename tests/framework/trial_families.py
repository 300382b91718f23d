"""Every trial family the runner executes, at a test size.

Shared by ``test_trial_garbage.py`` (a finished trial frees itself and
takes no trace) and ``tests/experiments/test_batch_trial.py`` (taking
the trace changes no result; span payloads are JSON-shaped).  Not a
test module.
"""

import functools

from repro.experiments.announcement import AnnouncementScenario
from repro.experiments.failover import FailoverScenario
from repro.experiments.scenarios import fault_suite_scenario
from repro.experiments.withdrawal import WithdrawalScenario
from repro.faults.scenarios import canned_names
from repro.runner.jobs import RunSpec
from repro.topology.builders import clique

#: family -> (scenario factory, clique size)
FAMILIES = {
    "withdrawal": (WithdrawalScenario, 6),
    "failover": (FailoverScenario, 6),
    "announcement": (AnnouncementScenario, 6),
    **{
        suite: (functools.partial(fault_suite_scenario, suite=suite), 8)
        for suite in canned_names()
    },
}


def family_spec(family, sdn_count=None, **options):
    """The family's trial on its clique, seed 3, MRAI 1 s; half the
    ASes SDN unless ``sdn_count`` says otherwise."""
    factory, n = FAMILIES[family]
    return RunSpec(
        scenario_factory=factory, topology_factory=clique, n=n,
        sdn_count=n // 2 if sdn_count is None else sdn_count, seed=3,
        mrai=1.0, **options,
    )
