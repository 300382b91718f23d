"""Focused tests for the cluster BGP speaker's relay behaviour."""

from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.net.addr import Prefix
from repro.topology.builders import clique
from tests.conftest import select, subscribe_records


def hybrid(seed=1, mrai=1.0):
    config = ExperimentConfig(
        seed=seed,
        timers=BGPTimers(mrai=mrai),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    return Experiment(clique(4), sdn_members={3, 4}, config=config).start()


class TestSpeakerRibs:
    def test_external_routes_snapshot(self):
        exp = hybrid()
        routes = exp.speaker.external_routes()
        assert routes
        prefixes = {str(r.prefix) for r in routes}
        assert str(exp.as_prefix(1)) in prefixes

    def test_external_routes_filtered_by_prefix(self):
        exp = hybrid()
        prefix = exp.as_prefix(1)
        routes = exp.speaker.external_routes(prefix)
        assert routes and all(r.prefix == prefix for r in routes)

    def test_prefix_query_equals_filtered_snapshot(self):
        """One ``rib_in.get`` per peering answers what filtering the full
        snapshot does — several prefixes per peering, a down session and
        peerings that hold no route for the prefix included."""
        exp = hybrid()
        exp.fail_link(1, 3)
        exp.wait_converged()
        speaker = exp.speaker
        snapshot = speaker.external_routes()
        down = [s for s in speaker.sessions.values() if not s.established]
        assert down
        per_peering = {}
        for route in snapshot:
            per_peering.setdefault(route.peering, set()).add(route.prefix)
        assert max(len(held) for held in per_peering.values()) > 1
        known = speaker.known_external_prefixes()
        assert any(
            prefix not in held
            for prefix in known for held in per_peering.values()
        )
        for prefix in known + [Prefix.parse("192.0.2.0/24")]:
            assert speaker.external_routes(prefix) == [
                r for r in snapshot if r.prefix == prefix
            ]

    def test_member_asn_loop_check_on_import(self):
        """Paths containing the peering member's own ASN are dropped."""
        exp = hybrid()
        for route in exp.speaker.external_routes():
            assert not route.as_path.contains(route.peering.member_asn)

    def test_known_external_prefixes_sorted(self):
        exp = hybrid()
        prefixes = exp.speaker.known_external_prefixes()
        assert prefixes == sorted(prefixes)


class TestPeeringFailure:
    def test_phys_link_down_tears_speaker_session(self):
        exp = hybrid()
        target = None
        for link_id, peering in exp.speaker.peering_of.items():
            if peering.member == "as3" and peering.external == "as1":
                target = exp.speaker.sessions[link_id]
        assert target is not None and target.established
        exp.fail_link(1, 3)
        exp.wait_converged()
        assert not target.established

    def test_phys_link_restore_reestablishes(self):
        exp = hybrid()
        exp.fail_link(1, 3)
        exp.wait_converged()
        exp.restore_link(1, 3)
        exp.wait_converged()
        established = [
            s for lid, s in exp.speaker.sessions.items()
            if exp.speaker.peering_of[lid].member == "as3"
            and exp.speaker.peering_of[lid].external == "as1"
        ]
        assert established and established[0].established

    def test_lost_peering_routes_removed(self):
        exp = hybrid()
        exp.fail_link(1, 3)
        exp.wait_converged()
        for route in exp.speaker.external_routes():
            assert not (
                route.peering.member == "as3"
                and route.peering.external == "as1"
            )

    def test_relay_link_failure_drops_session_too(self):
        exp = hybrid()
        relay = exp.net.link_between("speaker", "as3")
        assert relay is not None
        relay.fail()
        exp.wait_converged()
        session = exp.speaker.sessions[relay.link_id]
        assert not session.established


class TestAdvertisementDiffing:
    def test_no_duplicate_announcements(self):
        """The speaker's Adj-RIB-Out suppresses identical re-sends."""
        exp = hybrid()
        records = subscribe_records(exp.net.bus)
        # force a recompute with no route changes
        exp.controller.mark_dirty(exp.controller.known_prefixes())
        exp.wait_converged()
        announces = [
            r for r in select(records, "bgp.update.tx", node="speaker")
            if r.data["announced"]
        ]
        assert announces == []
