"""Differential oracle: the indexed engine reproduces the full scan.

Every router reads its candidates from the prefix index and decides
once per touched prefix (docs/scaling.md).  That is only admissible
because it changes *nothing observable*.  The last run-time comparison
against the session-scan router on the binary heap is frozen as data in
``fixtures/withdrawal_oracles.json`` — captured at the commit before the
scan path and the calendar queue were deleted — and these tests hold
the one remaining path to it with exact equality: every measurement
field, the full trace digest, the bus's per-category counts and the
kernel's event count.  The scan itself stays in ``src/`` as
``BGPRouter.verify_decisions()``; the failover and flap-storm oracles
are ``test_fault_differential``'s.
"""

import json
import pathlib
from dataclasses import fields

import pytest

from repro.bgp.router import BGPRouter
from repro.eventsim import RecordDigest
from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    sdn_set_for,
)
from repro.framework.convergence import ConvergenceMeasurement, measure_event
from repro.framework.experiment import Experiment
from repro.topology.builders import clique

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "withdrawal_oracles.json"
ORACLES = json.loads(FIXTURE.read_text())["withdrawal"]


def _run_withdrawal(*, n, sdn_count, seed, mrai):
    """One Fig. 2-style withdrawal run, keeping the live experiment so
    the routers stay inspectable, with the digest of its whole record
    stream."""
    scenario = WithdrawalScenario()
    topology = scenario.topology(n, clique)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    config = paper_config(seed=seed, mrai=mrai)
    exp = Experiment(
        topology, sdn_members=members, config=config, name=scenario.name
    ).build()
    digest = RecordDigest(exp.net.bus)
    scenario.configure(exp)
    exp.start()
    scenario.prepare(exp)
    measurement = measure_event(exp, lambda: scenario.event(exp))
    scenario.finish(exp)
    return exp, measurement, digest.hexdigest()


@pytest.mark.parametrize(
    "case", ORACLES, ids=[str(c["sdn_count"]) for c in ORACLES]
)
def test_withdrawal_measurement_and_trace_bit_identical(case):
    exp, measurement, digest = _run_withdrawal(
        n=case["n"], sdn_count=case["sdn_count"], seed=case["seed"],
        mrai=case["mrai"],
    )
    assert sorted(case["measurement"]) == sorted(
        f.name for f in fields(ConvergenceMeasurement)
    )
    for name, frozen in case["measurement"].items():
        assert getattr(measurement, name) == frozen, name
    assert digest == case["trace_digest"]
    assert dict(exp.net.bus.counts) == case["bus_counts"]
    assert exp.net.sim.events_processed == case["events_processed"]
    # The scan-order invariant of docs/scaling.md: the index yields the
    # scan's candidates as the same *list*, collector included.
    for router in exp.net.nodes_of_type(BGPRouter):
        for prefix in router.known_prefixes():
            assert router.candidates(prefix) == router._scan_candidates(
                prefix
            ), (router.name, prefix)


def test_withdrawal_incremental_decisions_match_full_scan():
    # The oracle inside the router: after a converged run, a full scan
    # over every known prefix must agree with every Loc-RIB the
    # once-per-touched-prefix decisions produced.
    exp, _, _ = _run_withdrawal(n=8, sdn_count=3, seed=7, mrai=2.0)
    for asn in exp.legacy_asns():
        assert exp.node(asn).verify_decisions() == [], f"AS{asn}"
