"""The cluster speaker's prefix index and the external routes it holds.

``ClusterBGPSpeaker.external_routes`` reads a prefix's entries from the
index the Adj-RIB-Ins feed, each an ``ExternalRoute`` made once when
its route was learned.  The oracle is the scan it replaced: every
established session's table, in table order, an ``ExternalRoute`` built
per route per call.
"""

from repro.controller.graphs import ExternalRoute
from repro.net.addr import Prefix
from tests.controller.test_speaker import hybrid

UNKNOWN = Prefix.parse("192.0.2.0/24")


def scan_external_routes(speaker, prefix=None):
    """The pre-index ``external_routes``: probe every Adj-RIB-In."""
    out = []
    for link_id, session in speaker.sessions.items():
        if not session.established:
            continue
        rib_in = session.rib_in
        peering = speaker.peering_of[link_id]
        if prefix is None:
            routes = rib_in
        else:
            route = rib_in.get(prefix)
            routes = () if route is None else (route,)
        for route in routes:
            out.append(ExternalRoute(
                peering=peering,
                prefix=route.prefix,
                as_path=route.attrs.as_path,
                origin=route.attrs.origin,
                med=route.attrs.med,
                learned_at=route.learned_at,
            ))
    return out


def assert_matches_scan(speaker):
    assert speaker.external_routes() == scan_external_routes(speaker)
    for prefix in speaker.known_external_prefixes() + [UNKNOWN]:
        assert speaker.external_routes(prefix) == scan_external_routes(
            speaker, prefix
        ), prefix
    held = set()
    for session in speaker.sessions.values():
        held.update(session.rib_in.prefixes())
    assert speaker.known_external_prefixes() == sorted(held)


def index_links(speaker):
    """Every (prefix, relay link id) the index holds."""
    return {
        (prefix, link_id)
        for prefix in speaker._index.prefixes()
        for link_id in speaker._index.get(prefix)
    }


def table_links(speaker):
    """Every (prefix, relay link id) the Adj-RIB-Ins hold."""
    return {
        (prefix, link_id)
        for link_id, session in speaker.sessions.items()
        for prefix in session.rib_in.prefixes()
    }


class TestExternalRoutesEqualTheScan:
    def test_after_start(self):
        exp = hybrid()
        assert exp.speaker.external_routes()
        assert_matches_scan(exp.speaker)

    def test_through_link_failure_restore_and_churn(self):
        exp = hybrid(seed=3)
        speaker = exp.speaker
        exp.fail_link(1, 3)
        exp.wait_converged()
        assert any(not s.established for s in speaker.sessions.values())
        assert_matches_scan(speaker)
        prefix = exp.announce(2)
        exp.wait_converged()
        assert speaker.external_routes(prefix)
        assert_matches_scan(speaker)
        exp.restore_link(1, 3)
        exp.wait_converged()
        assert_matches_scan(speaker)
        exp.withdraw(2, prefix)
        exp.wait_converged()
        assert_matches_scan(speaker)

    def test_one_prefix_reads_in_ascending_link_order(self):
        exp = hybrid()
        speaker = exp.speaker
        # Table order, which the scan used, is ascending link id.
        assert list(speaker.sessions) == sorted(speaker.sessions)
        link_of = {p: lid for lid, p in speaker.peering_of.items()}
        for prefix in speaker.known_external_prefixes():
            ids = [link_of[r.peering] for r in speaker.external_routes(prefix)]
            assert len(ids) > 1 and ids == sorted(ids)

    def test_each_route_is_made_once(self):
        exp = hybrid()
        speaker = exp.speaker
        prefix = exp.as_prefix(1)
        first = speaker.external_routes(prefix)
        again = speaker.external_routes(prefix)
        assert first and all(a is b for a, b in zip(first, again))
        # A recompute reads the same objects; it builds none.
        exp.controller.mark_dirty([prefix])
        exp.controller.flush_now()
        assert all(
            a is b for a, b in zip(first, speaker.external_routes(prefix))
        )


class TestTheIndexEmptiesOut:
    def test_after_withdraw(self):
        exp = hybrid()
        speaker = exp.speaker
        prefix = exp.announce(1)
        exp.wait_converged()
        assert speaker._index.get(prefix)
        exp.withdraw(1, prefix)
        exp.wait_converged()
        assert speaker._index.get(prefix) == {}
        assert speaker.external_routes(prefix) == []
        assert index_links(speaker) == table_links(speaker)

    def test_after_session_down(self):
        exp = hybrid()
        speaker = exp.speaker
        (link_id,) = [
            lid for lid, p in speaker.peering_of.items()
            if p.member == "as3" and p.external == "as1"
        ]
        assert any(lid == link_id for _, lid in index_links(speaker))
        exp.fail_link(1, 3)
        exp.wait_converged()
        assert not speaker.sessions[link_id].established
        assert all(lid != link_id for _, lid in index_links(speaker))
        assert all(
            r.peering != speaker.peering_of[link_id]
            for r in speaker.external_routes()
        )
        assert index_links(speaker) == table_links(speaker)

    def test_up_on_a_table_still_holding_routes(self):
        # The FSM always passes through session_down first; replacing a
        # populated table directly must still take its entries out of
        # the index with it.
        exp = hybrid()
        speaker = exp.speaker
        link_id, session = next(
            (lid, s) for lid, s in sorted(speaker.sessions.items())
            if len(s.rib_in)
        )
        speaker.session_up(session)
        assert len(session.rib_in) == 0
        assert all(lid != link_id for _, lid in index_links(speaker))
        assert index_links(speaker) == table_links(speaker)
        assert_matches_scan(speaker)
