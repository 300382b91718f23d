"""The routing policy: the LOCAL_PREF ladder, the valley-free rule and
the per-session ``PeerPolicy``, unit by unit and as a table read off
real routers."""

import pytest

from repro.bgp.attrs import DEFAULT_LOCAL_PREF, AsPath, PathAttributes
from repro.bgp.collector import RouteCollector
from repro.bgp.policy import (
    LOCAL_PREF_BY_RELATIONSHIP,
    Relationship,
    exports,
    gao_rexford_policy,
    transit_all_policy,
)
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.net.addr import Prefix

ROUTE = PathAttributes(as_path=AsPath.of(1))


class TestRelationship:
    def test_inverse_pairs(self):
        assert Relationship.CUSTOMER.inverse is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse is Relationship.CUSTOMER
        assert Relationship.PEER.inverse is Relationship.PEER
        assert Relationship.FLAT.inverse is Relationship.FLAT

    def test_local_pref_ladder(self):
        ladder = LOCAL_PREF_BY_RELATIONSHIP
        assert (
            ladder[Relationship.CUSTOMER]
            > ladder[Relationship.PEER]
            > ladder[Relationship.PROVIDER]
        )


class TestGaoRexford:
    @pytest.mark.parametrize(
        "relationship",
        [Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER],
    )
    def test_import_sets_relationship_local_pref(self, relationship):
        imported = gao_rexford_policy(relationship).import_attrs(ROUTE)
        assert imported.local_pref == LOCAL_PREF_BY_RELATIONSHIP[relationship]

    def _exports(self, learned_from, export_to):
        """Whether a route learned from X may be exported to Y."""
        exported = gao_rexford_policy(export_to).export_attrs(
            ROUTE, learned_from, 9
        )
        assert (exported is not None) == exports(learned_from, export_to)
        return exported is not None

    def test_customer_routes_export_everywhere(self):
        for to in (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER):
            assert self._exports(Relationship.CUSTOMER, to)

    def test_peer_routes_export_only_to_customers(self):
        assert self._exports(Relationship.PEER, Relationship.CUSTOMER)
        assert not self._exports(Relationship.PEER, Relationship.PEER)
        assert not self._exports(Relationship.PEER, Relationship.PROVIDER)

    def test_provider_routes_export_only_to_customers(self):
        assert self._exports(Relationship.PROVIDER, Relationship.CUSTOMER)
        assert not self._exports(Relationship.PROVIDER, Relationship.PEER)
        assert not self._exports(Relationship.PROVIDER, Relationship.PROVIDER)

    def test_local_routes_export_everywhere(self):
        for to in (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER):
            assert self._exports(None, to)

    def test_flat_routes_export_everywhere(self):
        """A FLAT link carries no business policy: what it brings in is
        exported like a customer's route, by routers and the controller
        alike (the legacy route-maps denied it toward non-customers)."""
        for to in Relationship:
            assert self._exports(Relationship.FLAT, to)


class TestTransitAll:
    def test_accepts_and_reexports_everything(self):
        policy = transit_all_policy()
        imported = policy.import_attrs(ROUTE.with_local_pref(7))
        assert imported.local_pref == 7
        for learned in (None, *Relationship):
            exported = policy.export_attrs(imported, learned, 9)
            assert exported.as_path.asns == (9, 1)
            assert exported.local_pref == DEFAULT_LOCAL_PREF


class TestExportPrepend:
    def test_prepend_applied_on_permit(self):
        policy = transit_all_policy().with_export_prepend(3)
        exported = policy.export_attrs(ROUTE, None, 9)
        assert exported.as_path.asns == (9, 9, 9, 9, 1)

    def test_original_policy_unchanged(self):
        base = transit_all_policy()
        base.with_export_prepend(3)
        assert base.export_attrs(ROUTE, None, 9).as_path.asns == (9, 1)

    def test_denied_routes_stay_denied(self):
        policy = gao_rexford_policy(Relationship.PEER).with_export_prepend(1)
        # peer-learned to peer: still denied with the prepend
        assert policy.export_attrs(ROUTE, Relationship.PEER, 9) is None


# ----------------------------------------------------------------------
# The rule table, read off real routers
# ----------------------------------------------------------------------
C, P, V = Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER
ORIGIN_PFX = Prefix.parse("192.168.0.0/24")

#: relationship (AS1's view) -> the stub that sits there: AS3 is AS1's
#: customer, AS4 its peer, AS5 its provider.
STUBS = {C: 3, P: 4, V: 5}


def policy_star(net, learned, *, valley_free=True, prepend_toward=None):
    """AS1 between a source AS2 (``learned`` from AS1's view; None: AS1
    originates and there is no AS2) and the three ``STUBS``.

    ``valley_free`` picks the Gao-Rexford templates on every session,
    else transit-all; ``prepend_toward`` names the relationship whose
    stub AS1 prepends itself twice toward.  Returns ``(as1, {asn:
    router}, {relationship: AS1's session toward that stub})``.
    """

    def policy(relationship):
        if valley_free:
            return gao_rexford_policy(relationship)
        return transit_all_policy()

    timers = BGPTimers(mrai=0.2)
    routers = {
        asn: net.add_node(BGPRouter(net.sim, f"as{asn}", asn=asn, timers=timers))
        for asn in [1, *STUBS.values()] + ([2] if learned is not None else [])
    }
    hub = routers[1]
    toward = {}
    neighbours = [(2, learned)] if learned is not None else []
    for asn, rel in neighbours + [(asn, rel) for rel, asn in STUBS.items()]:
        link = net.add_link(hub, routers[asn], latency=0.01)
        hub_policy = policy(rel)
        if rel is prepend_toward and asn != 2:
            hub_policy = hub_policy.with_export_prepend(2)
        session = hub.add_peer(link, policy=hub_policy)
        routers[asn].add_peer(link, policy=policy(rel.inverse))
        if asn != 2:
            toward[rel] = session
    for router in routers.values():
        router.start()
    net.sim.run_until_settled()
    (routers[2] if learned is not None else hub).originate(ORIGIN_PFX)
    net.sim.run_until_settled()
    return hub, routers, toward


#: learned (None: originated) -> (AS1's LOCAL_PREF for the route, the
#: relationships it is exported toward) under Gao-Rexford.
VALLEY_FREE = {
    None: (100, {C, P, V}),
    C: (200, {C, P, V}),
    P: (100, {C}),
    V: (50, {C}),
}


class TestPolicyTable:
    """Import LOCAL_PREF, export or not, and the exported AS path for
    every (learned, toward) pair, read off AS1's Loc-RIB, its
    Adj-RIBs-Out and the stubs' Loc-RIBs."""

    def check(self, net, learned, local_pref, exported, *, valley_free=True,
              prepend_toward=None):
        hub, routers, toward = policy_star(
            net, learned, valley_free=valley_free,
            prepend_toward=prepend_toward,
        )
        best = hub.loc_rib.get(ORIGIN_PFX)
        assert best.is_local == (learned is None)
        assert best.attrs.local_pref == local_pref
        tail = (1,) if learned is None else (1, 2)
        for rel, session in toward.items():
            sent = session.rib_out.get(ORIGIN_PFX)
            heard = routers[STUBS[rel]].loc_rib.get(ORIGIN_PFX)
            if rel not in exported:
                assert sent is None and heard is None, rel
                continue
            path = (1, 1) + tail if rel is prepend_toward else tail
            assert sent.as_path.asns == path, rel
            assert sent.local_pref == DEFAULT_LOCAL_PREF, rel
            assert heard.attrs.as_path.asns == path, rel

    @pytest.mark.parametrize(
        "learned", list(VALLEY_FREE), ids=lambda r: r.value if r else "local"
    )
    def test_valley_free(self, net, learned):
        local_pref, exported = VALLEY_FREE[learned]
        self.check(net, learned, local_pref, exported)

    @pytest.mark.parametrize(
        "learned", list(VALLEY_FREE), ids=lambda r: r.value if r else "local"
    )
    def test_transit_all_keeps_local_pref_and_exports_everything(
        self, net, learned
    ):
        self.check(
            net, learned, DEFAULT_LOCAL_PREF, {C, P, V}, valley_free=False
        )

    @pytest.mark.parametrize("learned", [None, C, P])
    def test_a_prepended_session(self, net, learned):
        """AS1 prepends itself twice toward its peer: only that session's
        exports grow, and what the rule denies stays denied."""
        local_pref, exported = VALLEY_FREE[learned]
        self.check(net, learned, local_pref, exported, prepend_toward=P)

    def test_a_flat_link_under_valley_free_exports_everywhere(self, net):
        """The one answer the shared rule changed: a route learned over a
        FLAT link on a valley-free router now goes toward peers and
        providers too, as the controller always exported it."""
        self.check(net, Relationship.FLAT, 100, {C, P, V})

    def test_the_collector_imports_everything_and_exports_nothing(self, net):
        """AS1 and AS2 feed a collector over transit-all sessions, as in an
        experiment; the collector holds AS1's route and AS2 never hears
        it from the collector."""
        timers = BGPTimers(mrai=0.2)
        as1, as2 = (
            net.add_node(BGPRouter(net.sim, f"as{asn}", asn=asn, timers=timers))
            for asn in (1, 2)
        )
        collector = net.add_node(RouteCollector(net.sim))
        feeds = {}
        for router in (as1, as2):
            link = net.add_link(router, collector, latency=0.01)
            router.add_peer(link, policy=transit_all_policy())
            feeds[router] = collector.add_peer(link)
        for node in (as1, as2, collector):
            node.start()
        net.sim.run_until_settled()
        as1.originate(ORIGIN_PFX)
        net.sim.run_until_settled()
        held = collector.loc_rib.get(ORIGIN_PFX)
        assert held.attrs.as_path.asns == (1,)
        assert held.attrs.local_pref == DEFAULT_LOCAL_PREF
        for session in feeds.values():
            assert session.rib_out.get(ORIGIN_PFX) is None
        assert as2.loc_rib.get(ORIGIN_PFX) is None
