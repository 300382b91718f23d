"""Integration: the route collector is not part of the measured network.

The paper's metric is the routers' convergence time.  Off the clique
the collector's own backlog still ends the measurement: on the depth-4
tree its last ``bgp.decision`` and ``fib.change`` come 0.28 s after the
last router's record.  Pinned as a strict expected failure until the
collector's own records stop counting toward convergence; the change
that makes them stop removes the marker.
"""

import pytest

from repro.eventsim.bus import ROUTE_AFFECTING
from repro.experiments.common import WithdrawalScenario, paper_config
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment
from repro.topology.builders import binary_tree

from tests.conftest import subscribe_records


@pytest.mark.xfail(
    strict=True,
    reason="the collector's own records end the measurement",
)
def test_withdrawal_time_ends_at_the_last_routers_record():
    exp = Experiment(
        binary_tree(4), config=paper_config(seed=1, mrai=5.0)
    ).start()
    scenario = WithdrawalScenario()
    scenario.prepare(exp)
    records = subscribe_records(exp.net.bus)
    m = measure_event(exp, lambda: scenario.event(exp))
    collector = exp.collector.name
    last = max(
        r.time for r in records
        if r.category in ROUTE_AFFECTING and r.node != collector
    )
    assert m.convergence_time == pytest.approx(last - m.t_event)
