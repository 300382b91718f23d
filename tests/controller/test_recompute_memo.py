"""A recompute whose AS topology graph has not changed stops early.

``IDRController._recompute_prefix`` remembers, per prefix, the switch
graph view and the edges to DEST it last computed from.  When both are
what they were, Dijkstra, the compiler and the advertisement step are
skipped: they would send nothing.  ``member_rebooted`` forgets it all,
because the rebooted member's rules must go out again.
"""

import pytest

from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.messages import BGPUpdate
from repro.bgp.session import BGPTimers
from repro.controller import idr
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.net.addr import Prefix
from repro.topology.builders import clique
from tests.conftest import select, subscribe_records


def hybrid(seed=1):
    config = ExperimentConfig(
        seed=seed,
        timers=BGPTimers(mrai=1.0),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    exp = Experiment(clique(5), sdn_members={3, 4, 5}, config=config).start()
    exp.announce(1)
    exp.wait_converged()
    return exp


@pytest.fixture
def computes(monkeypatch):
    """The prefixes ``compute_decisions`` runs for, in order (the test
    empties it once its experiment is set up)."""
    seen = []
    compute = idr.compute_decisions

    def counting(topo, member_asn):
        seen.append(topo.prefix)
        return compute(topo, member_asn)

    monkeypatch.setattr(idr, "compute_decisions", counting)
    return seen


class TestUnchangedInputs:
    def test_sends_nothing_and_advertises_nothing(self, computes):
        exp = hybrid()
        computes.clear()
        controller = exp.controller
        decisions = dict(controller.decisions)
        sent = controller.flow_mods_sent
        records = subscribe_records(exp.net.bus)
        controller.mark_dirty(controller.known_prefixes())
        controller.flush_now()
        exp.wait_converged()
        assert computes == []
        assert controller.flow_mods_sent == sent
        assert select(records, "controller.flow_install") == []
        assert select(records, "controller.advertise") == []
        assert select(records, "controller.recompute")
        assert controller.decisions == decisions
        assert controller.audit() == []

    def test_a_new_view_recomputes(self, computes):
        # Re-asserting an up intra-cluster link moves nothing but
        # replaces the view; a new view alone reruns every prefix.
        exp = hybrid()
        computes.clear()
        controller = exp.controller
        prefixes = controller.known_prefixes()
        controller.switch_graph.set_link_state("as3", "as4", True)
        controller.mark_dirty(prefixes)
        controller.flush_now()
        assert computes == prefixes

    def test_another_route_at_the_same_weight_recomputes(self, computes):
        # Same path length, so the edge to DEST weighs what it did; only
        # the route backing it (egress_choice) tells the change apart.
        exp = hybrid()
        computes.clear()
        controller, speaker = exp.controller, exp.speaker
        (session,) = [
            speaker.sessions[lid] for lid, p in speaker.peering_of.items()
            if p.member == "as3" and p.external == "as1"
        ]
        prefix = Prefix.parse("203.0.113.0/24")
        advertised = []
        for path in (AsPath.of(1, 7), AsPath.of(1, 8), AsPath.of(1, 8)):
            before = exp.net.bus.count("controller.advertise")
            speaker._apply_update(session, BGPUpdate(
                sender_asn=1,
                announced=((prefix, PathAttributes(as_path=path)),),
            ))
            controller.mark_dirty([prefix])
            controller.flush_now()
            advertised.append(
                exp.net.bus.count("controller.advertise") - before
            )
            assert controller.decisions[prefix]["as3"].route.as_path == path
        assert computes == [prefix, prefix]
        assert advertised == [1, 1, 0]

    def test_a_changed_route_recomputes(self, computes):
        exp = hybrid()
        computes.clear()
        prefix = exp.announce(2)
        exp.wait_converged()
        assert prefix in computes
        assert exp.controller.audit() == []


class TestMemberReboot:
    def test_next_recompute_pushes_the_rules_again(self, computes):
        exp = hybrid()
        computes.clear()
        controller = exp.controller
        switch = exp.node(4)
        held = [r for r in switch.flow_table if r.cookie.startswith("idr:")]
        assert held
        # The switch lost its table; no link moved, so the view and
        # every route are what they were.
        switch.flow_table.clear()
        assert controller.audit()
        sent = controller.flow_mods_sent
        controller.member_rebooted(switch.name)
        exp.wait_converged()
        assert controller.flow_mods_sent - sent >= len(held)
        assert sorted(computes) == controller.known_prefixes()
        assert controller.audit() == []
