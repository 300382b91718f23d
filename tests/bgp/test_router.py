"""Unit tests for the BGP router: RIBs, decision, FIB, propagation."""

import pytest

from repro.bgp.attrs import AsPath
from repro.bgp.policy import Relationship, gao_rexford_policy
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.net.addr import Prefix
from tests.conftest import make_bgp_mesh, select

PFX = Prefix.parse("192.168.0.0/24")


class TestOrigination:
    def test_originate_installs_local_fib(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        a.originate(PFX)
        entry = a.fib.get(PFX)
        assert entry is not None and entry.link is None

    def test_originate_propagates(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        a.originate(PFX)
        net.sim.run_until_settled()
        route = b.loc_rib.get(PFX)
        assert route is not None
        assert list(route.attrs.as_path) == [1]

    def test_withdraw_cleans_everywhere(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        a.originate(PFX)
        net.sim.run_until_settled()
        a.withdraw(PFX)
        net.sim.run_until_settled()
        assert a.loc_rib.get(PFX) is None
        assert b.loc_rib.get(PFX) is None
        assert b.fib.get(PFX) is None

    def test_withdraw_unknown_prefix_raises(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        with pytest.raises(KeyError):
            a.withdraw(PFX)

    def test_bad_asn_rejected(self, net):
        with pytest.raises(ValueError):
            BGPRouter(net.sim, "x", asn=0)

    def test_peer_link_must_attach(self, net):
        a, b, c = make_bgp_mesh(net, 3, start=False)
        with pytest.raises(ValueError, match="not an endpoint"):
            a.add_peer(net.link_between(b, c))


class TestPropagation:
    def test_as_path_grows_per_hop(self, net):
        routers = []
        timers = BGPTimers(mrai=0.5)
        for i in range(1, 4):
            router = BGPRouter(net.sim, f"as{i}", asn=i, timers=timers)
            net.add_node(router)
            routers.append(router)
        for i in range(2):  # line: as1 - as2 - as3
            link = net.add_link(routers[i], routers[i + 1])
            routers[i].add_peer(link)
            routers[i + 1].add_peer(link)
        for router in routers:
            router.start()
        net.sim.run_until_settled()
        routers[0].originate(PFX)
        net.sim.run_until_settled()
        assert list(routers[2].loc_rib.get(PFX).attrs.as_path) == [2, 1]

    def test_loop_rejection(self, bgp_triangle, net):
        """A route whose path contains the receiver's ASN is discarded."""
        a, b, c = bgp_triangle
        a.originate(PFX)
        net.sim.run_until_settled()
        # b learned [1] direct and advertises [2,1] to c; c must never
        # accept any path containing 3, so check rib contents directly.
        for router in (a, b, c):
            for session in router.sessions.values():
                for route in session.rib_in:
                    assert not route.attrs.as_path.contains(router.asn)

    def test_best_path_prefers_direct(self, bgp_triangle, net):
        a, b, c = bgp_triangle
        a.originate(PFX)
        net.sim.run_until_settled()
        assert list(b.loc_rib.get(PFX).attrs.as_path) == [1]
        assert list(c.loc_rib.get(PFX).attrs.as_path) == [1]

    def test_fib_follows_best_change(self, bgp_triangle, net):
        a, b, c = bgp_triangle
        a.originate(PFX)
        net.sim.run_until_settled()
        direct = c.fib.get(PFX)
        assert direct.via == "as1"
        net.link_between("as1", "as3").fail()
        net.sim.run_until_settled()
        rerouted = c.fib.get(PFX)
        assert rerouted is not None and rerouted.via == "as2"

    def test_path_exploration_on_withdrawal(self, bgp_triangle, net, records):
        """Withdrawal triggers at least one stale-path exploration step."""
        a, b, c = bgp_triangle
        a.originate(PFX)
        net.sim.run_until_settled()
        t0 = net.sim.now
        a.withdraw(PFX)
        net.sim.run_until_settled()
        decisions = [
            r for r in select(records, category="bgp.decision", since=t0)
            if r.data["prefix"] == str(PFX) and r.node in ("as2", "as3")
        ]
        # each of b, c at least loses the route; exploration may add more
        assert len(decisions) >= 2
        assert all(
            rec.data["new"] is None
            for rec in decisions if rec.time == max(r.time for r in decisions)
        )

    def test_split_horizon_no_echo_to_best_source(self, bgp_triangle, net):
        a, b, c = bgp_triangle
        a.originate(PFX)
        net.sim.run_until_settled()
        # b's best is via a; b must not have advertised the prefix back to a
        for session in a.sessions.values():
            if session.peer_name == "as2":
                route = session.rib_in.get(PFX)
                assert route is None


class TestGaoRexfordIntegration:
    def build(self, net):
        """provider as1 above peers as2, as3; as2/as3 each have customer."""
        timers = BGPTimers(mrai=0.2)
        routers = {}
        for asn in (1, 2, 3, 4, 5):
            routers[asn] = net.add_node(
                BGPRouter(net.sim, f"as{asn}", asn=asn, timers=timers)
            )

        def connect(up, down, rel_down):
            link = net.add_link(routers[up], routers[down])
            routers[up].add_peer(link, policy=gao_rexford_policy(rel_down))
            routers[down].add_peer(
                link, policy=gao_rexford_policy(rel_down.inverse)
            )

        # as1 provider of as2 and as3; as2 ~ as3 peers; as4 customer of
        # as2; as5 customer of as3.
        connect(1, 2, Relationship.CUSTOMER)
        connect(1, 3, Relationship.CUSTOMER)
        link = net.add_link(routers[2], routers[3])
        routers[2].add_peer(link, policy=gao_rexford_policy(Relationship.PEER))
        routers[3].add_peer(link, policy=gao_rexford_policy(Relationship.PEER))
        connect(2, 4, Relationship.CUSTOMER)
        connect(3, 5, Relationship.CUSTOMER)
        for router in routers.values():
            router.start()
        net.sim.run_until_settled()
        return routers

    def test_customer_route_reaches_everyone(self, net):
        routers = self.build(net)
        routers[4].originate(PFX)  # stub customer announces
        net.sim.run_until_settled()
        for asn in (1, 2, 3, 5):
            assert routers[asn].loc_rib.get(PFX) is not None, f"as{asn}"

    def test_valley_free_paths_only(self, net):
        routers = self.build(net)
        routers[4].originate(PFX)
        net.sim.run_until_settled()
        # as5's path must be valley-free: 3 2 4 (peer then customer ok
        # when heard from provider as3) or 3 1 2 4 — never ... 5 ... etc.
        path = list(routers[5].loc_rib.get(PFX).attrs.as_path)
        assert path[-1] == 4
        assert path[0] == 3

    def test_peer_route_not_given_to_provider(self, net):
        routers = self.build(net)
        routers[2].originate(PFX)
        net.sim.run_until_settled()
        # as3 hears [2] via peering; it must not export it to provider as1.
        # as1 still reaches PFX via its customer as2 directly:
        path = list(routers[1].loc_rib.get(PFX).attrs.as_path)
        assert path == [2]
        # and as3 -> as1 session must not carry it:
        for session in routers[1].sessions.values():
            if session.peer_name == "as3":
                assert session.rib_in.get(PFX) is None

    def test_customer_prefers_customer_route(self, net):
        routers = self.build(net)
        # as4 announces; as2 hears it as customer route (pref 200) and
        # would never prefer a peer/provider path even if shorter.
        routers[4].originate(PFX)
        net.sim.run_until_settled()
        best = routers[2].loc_rib.get(PFX)
        assert best.attrs.local_pref == 200


class TestDiagnostics:
    def test_rib_dump_marks_best(self, bgp_triangle, net):
        a, b, c = bgp_triangle
        a.originate(PFX)
        net.sim.run_until_settled()
        dump = c.rib_dump(PFX)
        assert dump[0].startswith("*>")
        assert any("as1" not in line or "AS1" in line for line in dump)

    def test_rib_dump_all_prefixes(self, bgp_triangle, net):
        a, b, c = bgp_triangle
        a.originate(PFX)
        b.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run_until_settled()
        assert len(c.rib_dump()) >= 2
