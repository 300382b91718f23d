"""RouteIndex + per-UPDATE decision dedup: how a router reads candidates.

The experiment-level guarantees live in
``tests/experiments/test_compact_differential.py``; these tests pin the
building blocks — the prefix-major index stays exactly in sync with its
Adj-RIB-In tables (across session replacement too), one UPDATE runs
each touched prefix once, in first-touch order, and the full scan that
checks both is itself right.
"""

from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.decision import full_scan_best, verify_loc_rib
from repro.bgp.messages import BGPUpdate
from repro.bgp.rib import AdjRibIn, LocRib, Route, RouteIndex
from repro.net.addr import Prefix
from tests.conftest import make_bgp_mesh

P1 = Prefix.parse("10.0.1.0/24")
P2 = Prefix.parse("10.0.2.0/24")


def route(prefix, *asns, peer_asn=None):
    path = AsPath.of(*asns)
    return Route(prefix, PathAttributes(as_path=path),
                 peer_asn=peer_asn if peer_asn is not None else asns[0])


class TestRouteIndex:
    def test_mirrors_installs_and_withdrawals(self):
        index = RouteIndex()
        rib = AdjRibIn(2, "AS2", link_id=7, index=index)
        rib.update(route(P1, 2, 1))
        assert set(index.get(P1)) == {7}
        assert index.get(P1)[7].prefix == P1
        rib.withdraw(P1)
        assert index.get(P1) == {} and len(index) == 0

    def test_replacement_overwrites_in_place(self):
        index = RouteIndex()
        rib = AdjRibIn(2, "AS2", link_id=7, index=index)
        rib.update(route(P1, 2, 1))
        rib.update(route(P1, 2, 3, 1))
        assert len(index.get(P1)) == 1
        assert index.get(P1)[7].attrs.as_path == AsPath.of(2, 3, 1)

    def test_clear_empties_the_index(self):
        index = RouteIndex()
        rib = AdjRibIn(2, "AS2", link_id=7, index=index)
        rib.update(route(P1, 2, 1))
        rib.update(route(P2, 2, 1))
        rib.clear()
        assert len(index) == 0

    def test_multiple_tables_share_one_index(self):
        index = RouteIndex()
        rib_a = AdjRibIn(2, "AS2", link_id=1, index=index)
        rib_b = AdjRibIn(3, "AS3", link_id=2, index=index)
        rib_a.update(route(P1, 2, 1))
        rib_b.update(route(P1, 3, 1))
        assert set(index.get(P1)) == {1, 2}
        rib_a.withdraw(P1)
        assert set(index.get(P1)) == {2}

    def test_unindexed_table_is_untouched_legacy(self):
        rib = AdjRibIn(2, "AS2")
        rib.update(route(P1, 2, 1))
        assert rib.get(P1) is not None


def learning_pair(net):
    """(a, b, b's session to a) with b holding a's P1 and P2."""
    a, b = make_bgp_mesh(net, 2)
    a.originate(P1)
    a.originate(P2)
    net.sim.run_until_settled()
    (session,) = b.sessions.values()
    assert session.rib_in.get(P1) and session.rib_in.get(P2)
    return a, b, session


class TestSessionReplacement:
    def test_down_then_up_leaves_no_entry_for_the_link(self, net):
        a, b, session = learning_pair(net)
        link_id = session.link.link_id
        b.session_down(session, reason="test")
        b.session_up(session)
        for prefix in (P1, P2):
            assert link_id not in b._index.get(prefix)
        assert b.verify_decisions() == []

    def test_up_on_a_table_still_holding_routes(self, net):
        # The FSM always passes through session_down first; replacing a
        # populated table directly must still take its entries out of
        # the index with it.
        a, b, session = learning_pair(net)
        b.session_up(session)
        assert len(session.rib_in) == 0
        assert b._index.get(P1) == {} and b._index.get(P2) == {}
        for prefix in b.known_prefixes():
            assert b.candidates(prefix) == b._scan_candidates(prefix)


class TestOneDecisionPerTouchedPrefix:
    def _apply(self, monkeypatch, router, session, update):
        """Apply one UPDATE; returns the prefixes decided, in order."""
        decided = []
        run_decision = router._run_decision

        def recording(prefix, link_id=-1):
            assert link_id == session.link.link_id
            decided.append(prefix)
            run_decision(prefix, link_id)

        monkeypatch.setattr(router, "_run_decision", recording)
        before = router.decisions_run
        router._apply_update(session, update)
        assert router.decisions_run - before == len(decided)
        return decided

    def test_withdraw_and_reannounce_decides_once(self, net, monkeypatch):
        a, b, session = learning_pair(net)
        longer = PathAttributes(as_path=AsPath.of(1, 9))
        update = BGPUpdate(
            sender_asn=1, withdrawn=(P1,), announced=((P1, longer),)
        )
        assert self._apply(monkeypatch, b, session, update) == [P1]
        assert b.loc_rib.get(P1).attrs.as_path == AsPath.of(1, 9)
        assert b.verify_decisions() == []

    def test_two_prefixes_decide_in_first_touch_order(self, net, monkeypatch):
        a, b, session = learning_pair(net)
        longer = PathAttributes(as_path=AsPath.of(1, 9))
        update = BGPUpdate(
            sender_asn=1, withdrawn=(P2, P1), announced=((P1, longer),)
        )
        assert self._apply(monkeypatch, b, session, update) == [P2, P1]
        assert b.loc_rib.get(P2) is None
        assert b.loc_rib.get(P1).attrs.as_path == AsPath.of(1, 9)
        assert b.verify_decisions() == []


class TestFullScanOracle:
    def _candidates(self, table):
        return lambda prefix: table.get(prefix, [])

    def test_full_scan_best_picks_winner_per_prefix(self):
        table = {
            P1: [route(P1, 2, 9, 1), route(P1, 3, 1)],
            P2: [route(P2, 4, 1)],
        }
        best = full_scan_best(
            self._candidates(table), [P1, P2]
        )
        assert best[P1].attrs.as_path == AsPath.of(3, 1)
        assert best[P2].attrs.as_path == AsPath.of(4, 1)

    def test_verify_loc_rib_accepts_agreement(self):
        table = {P1: [route(P1, 3, 1)]}
        loc = LocRib()
        loc.set_best(table[P1][0])
        assert verify_loc_rib(
            loc, self._candidates(table), [P1]
        ) == []

    def test_verify_loc_rib_flags_stale_winner(self):
        table = {P1: [route(P1, 3, 1), route(P1, 2, 9, 1)]}
        loc = LocRib()
        loc.set_best(table[P1][1])  # longer path: wrong
        problems = verify_loc_rib(
            loc, self._candidates(table), [P1]
        )
        assert problems and str(P1) in problems[0]

    def test_verify_loc_rib_flags_missing_and_ghost_entries(self):
        table = {P1: [route(P1, 3, 1)]}
        empty = LocRib()
        assert verify_loc_rib(
            empty, self._candidates(table), [P1]
        )
        ghost = LocRib()
        ghost.set_best(route(P2, 4, 1))
        assert verify_loc_rib(
            ghost, self._candidates({}), [P2]
        )
