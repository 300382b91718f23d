"""Tests for runtime topology changes (paper §2)."""

import pytest

from repro.bgp.policy import Relationship
from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentError,
)
from repro.topology.builders import clique, line
from tests.conftest import subscribe_records


def build(topo=None, sdn=(), seed=1, mrai=1.0):
    config = ExperimentConfig(
        seed=seed,
        timers=BGPTimers(mrai=mrai),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    return Experiment(
        topo if topo is not None else clique(4),
        sdn_members=set(sdn), config=config,
    ).start()


class TestConnect:
    def test_new_legacy_link_carries_traffic(self):
        exp = build(topo=line(4))
        # shortcut 1 <-> 4: path should shorten from 4 hops to direct
        assert len(exp.reachable(1, 4).hops) == 4
        exp.connect(1, 4)
        exp.wait_converged()
        assert exp.reachable(1, 4).hops == ["as1", "as4"]

    def test_duplicate_connect_rejected(self):
        exp = build()
        from repro.topology.model import TopologyError

        with pytest.raises(TopologyError):
            exp.connect(1, 2)

    def test_new_member_legacy_peering(self):
        exp = build(topo=line(4), sdn=(3, 4))
        exp.connect(1, 4)  # legacy as1 to member as4
        exp.wait_converged()
        assert exp.reachable(1, 4).hops == ["as1", "as4"]
        # a new speaker peering exists and is established
        peerings = [
            p for p in exp.speaker.peerings()
            if p.member == "as4" and p.external == "as1"
        ]
        assert peerings
        session = exp.speaker.session_for(peerings[0])
        assert session is not None and session.established

    def test_new_intra_cluster_link_used_by_controller(self):
        # members 2 and 4 not adjacent on a line; connect them.
        exp = build(topo=line(5), sdn=(2, 4), seed=2)
        exp.connect(2, 4)
        exp.wait_converged()
        assert exp.controller.switch_graph.intra_link_name("as2", "as4")
        assert len(exp.controller.switch_graph.sub_clusters()) == 1
        assert exp.all_reachable()

    def test_gao_rexford_relationship_respected(self):
        exp = build(topo=line(3))
        exp.connect(1, 3, relationship=Relationship.CUSTOMER)
        link = exp.topology.link_between(1, 3)
        assert link.relationship_for(1) is Relationship.CUSTOMER


class TestAddAs:
    def test_add_legacy_as_becomes_reachable(self):
        exp = build()
        exp.add_as(9, links=[1, 2])
        exp.wait_converged()
        assert exp.reachable(9, 3).reached
        assert exp.reachable(3, 9).reached

    def test_new_as_originates_its_prefix(self):
        exp = build()
        exp.add_as(9, links=[1])
        exp.wait_converged()
        assert exp.node(2).loc_rib.get(exp.as_prefix(9)) is not None

    def test_new_as_peers_with_collector(self):
        exp = build()
        records = subscribe_records(exp.net.bus, ["bgp.update.rx"])
        exp.add_as(9, links=[1])
        exp.wait_converged()
        assert any(
            r.node == exp.collector.name and r.data["peer"] == "as9"
            for r in records
        )

    def test_add_sdn_member_at_runtime(self):
        exp = build(sdn=(4,))
        exp.add_as(9, sdn=True, links=[1, 4])
        exp.wait_converged()
        assert "as9" in exp.controller.members()
        assert exp.reachable(2, 9).reached
        assert exp.reachable(9, 2).reached

    def test_first_sdn_member_at_runtime_rejected(self):
        exp = build()
        with pytest.raises(ExperimentError):
            exp.add_as(9, sdn=True, links=[1])

    def test_duplicate_asn_rejected(self):
        exp = build()
        from repro.topology.model import TopologyError

        with pytest.raises(TopologyError):
            exp.add_as(1)

    def test_growth_measured_as_event(self):
        from repro.framework.convergence import measure_event

        exp = build()
        m = measure_event(exp, lambda: exp.add_as(9, links=[1, 2, 3]))
        assert m.convergence_time > 0
        assert m.updates_tx > 0
        assert exp.all_reachable()
