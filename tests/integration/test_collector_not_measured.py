"""Integration: the route collector is not part of the measured network.

The paper's metric is the routers' convergence time.  Off the clique
the collector's own backlog still ends the measurement: on the depth-4
tree its last ``bgp.decision`` and ``fib.change`` come 0.28 s after the
last router's record, and on a 16-AS synthetic CAIDA hierarchy under
Gao-Rexford it measures 0.21-0.27 s where the last router's record
came 0.09 s after the event (experiment seeds 1-5).  Both are pinned
as strict expected failures until the collector's own records stop
counting toward convergence; the change that makes them stop removes
the markers.
"""

import pytest

from repro.eventsim.bus import ROUTE_AFFECTING
from repro.experiments.common import WithdrawalScenario, paper_config
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment
from repro.topology.builders import binary_tree
from repro.topology.caida import synthetic_caida_topology

from tests.conftest import subscribe_records


CASES = {
    "binary-tree": lambda: (binary_tree(4), paper_config(seed=1, mrai=5.0)),
    "caida-synth": lambda: (
        synthetic_caida_topology(tier1=3, transit=5, stubs=8, seed=7),
        paper_config(seed=1, mrai=30.0, policy_mode="gao_rexford"),
    ),
}


@pytest.mark.xfail(
    strict=True,
    reason="the collector's own records end the measurement",
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_withdrawal_time_ends_at_the_last_routers_record(case):
    topology, config = CASES[case]()
    exp = Experiment(topology, config=config).start()
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
