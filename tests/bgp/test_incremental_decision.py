"""Incremental best path: an UPDATE on one link decides against the old best.

``BGPRouter._run_decision(prefix, link_id)`` compares the old Loc-RIB
best with that link's new route and rescans every candidate only when
that cannot decide (a damper, a change to the best's own link, an exact
key tie, or no link given).  These tests hold it to two oracles after
every applied UPDATE: ``verify_decisions()`` (the full session scan) and
a twin router that rescans on every decision, whose Loc-RIB and FIB
must match route for route, provenance included.
"""

import random

import pytest

from repro.bgp import router as router_module
from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.damping import DampingConfig
from repro.bgp.messages import BGPUpdate
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.net.addr import Prefix
from repro.net.network import Network

HUB_ASN = 100
PREFIXES = [Prefix.parse(f"10.0.{i}.0/24") for i in range(4)]


def hub_network(peers, *, parallel=(), damping=None, seed=42):
    """A hub router with one session to each of ``peers`` (ASNs), plus a
    second, parallel session to each ASN in ``parallel``.  Every session
    is established and every table is empty."""
    net = Network(seed=seed)
    timers = BGPTimers(mrai=1.0)
    hub = BGPRouter(
        net.sim, "hub", asn=HUB_ASN, timers=timers, damping=damping
    )
    net.add_node(hub)
    others = {}
    for asn in peers:
        other = others[asn] = BGPRouter(
            net.sim, f"as{asn}", asn=asn, timers=timers
        )
        net.add_node(other)
    for asn in list(peers) + list(parallel):
        link = net.add_link(hub, others[asn], latency=0.01)
        hub.add_peer(link)
        others[asn].add_peer(link)
    for node in [hub, *others.values()]:
        node.start()
    net.sim.run_until_settled()
    sessions = list(hub.sessions.values())
    assert all(s.established for s in sessions)
    assert len(hub.loc_rib) == 0
    return net, hub, sessions


def attrs(*asns, local_pref=100, med=0):
    return PathAttributes(
        as_path=AsPath.of(*asns), local_pref=local_pref, med=med
    )


def announce(hub, session, prefix, attributes):
    hub._apply_update(session, BGPUpdate(
        sender_asn=session.peer_asn, announced=((prefix, attributes),)
    ))


def withdraw(hub, session, prefix):
    hub._apply_update(session, BGPUpdate(
        sender_asn=session.peer_asn, withdrawn=(prefix,)
    ))


def count_rescans(monkeypatch, hub):
    """Count the decisions that read every candidate."""
    rescans = []
    candidates = hub.candidates

    def counting(prefix):
        rescans.append(prefix)
        return candidates(prefix)

    monkeypatch.setattr(hub, "candidates", counting)
    return rescans


def loc_rib_state(router):
    """The Loc-RIB and FIB, with each best's provenance.  Link ids are
    global, so a best's link is named by its session's position."""
    position = {link_id: i for i, link_id in enumerate(router.sessions)}
    rib = [
        (r.prefix, r.attrs, r.peer_asn, r.peer_name,
         position.get(r.link_id), r.learned_at)
        for r in router.loc_rib.routes()
    ]
    fib = sorted(
        (str(e.prefix), e.via, e.source) for e in router.fib
    )
    return rib, fib


def random_update(rng, session):
    """A random UPDATE from ``session``'s peer: withdrawals, and
    announcements with random length, LOCAL_PREF and MED.  Some paths
    carry the hub's own ASN (loop-rejected: an implicit withdrawal)."""
    withdrawn = tuple(
        p for p in PREFIXES if rng.random() < 0.2
    )
    announced = []
    for prefix in PREFIXES:
        if rng.random() < 0.4:
            tail = [rng.choice((7, 8, 9, 7, 8, 9, HUB_ASN))
                    for _ in range(rng.randint(0, 3))]
            announced.append((prefix, attrs(
                session.peer_asn, *tail,
                local_pref=rng.choice([100, 100, 200]),
                med=rng.choice([0, 10]),
            )))
    return BGPUpdate(
        sender_asn=session.peer_asn, withdrawn=withdrawn,
        announced=tuple(announced),
    )


class TestRandomUpdateSequences:
    """Seeded random UPDATE sequences on a hub with many sessions."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_full_scan_after_every_update(self, seed, monkeypatch):
        peers = [1, 2, 3, 4, 5, 6, 7]
        net, hub, sessions = hub_network(peers, parallel=[2, 5])
        twin_net, twin, twin_sessions = hub_network(peers, parallel=[2, 5])
        # Neither clock moves from here on, so learned_at agrees too.
        assert net.sim.now == twin_net.sim.now
        # The twin rescans on every decision: the pre-incremental router.
        monkeypatch.setattr(
            twin, "_incremental_best",
            lambda prefix, link_id, old: router_module._RESCAN,
        )
        rescans = count_rescans(monkeypatch, hub)
        rng = random.Random(seed)
        for step in range(300):
            i = rng.randrange(len(sessions))
            roll = rng.random()
            if roll < 0.05:
                # Origination and its withdrawal take the full scan.
                prefix = rng.choice(PREFIXES)
                for router in (hub, twin):
                    if prefix in router.originated:
                        router.withdraw(prefix)
                    else:
                        router.originate(prefix)
            else:
                update = random_update(rng, sessions[i])
                hub._apply_update(sessions[i], update)
                twin._apply_update(twin_sessions[i], update)
            assert hub.verify_decisions() == [], f"step {step}"
            assert loc_rib_state(hub) == loc_rib_state(twin), f"step {step}"
        # Both paths ran, the fast one most of the time.
        assert 0 < len(rescans) < hub.decisions_run / 2
        assert hub.decisions_run == twin.decisions_run


class TestWhenTheFastPathDecides:
    def test_learned_route_with_higher_local_pref_beats_origination(
        self, monkeypatch
    ):
        _, hub, sessions = hub_network([1, 2])
        prefix = PREFIXES[0]
        hub.originate(prefix)
        assert hub.loc_rib.get(prefix).is_local
        rescans = count_rescans(monkeypatch, hub)
        announce(hub, sessions[0], prefix, attrs(1, 9, local_pref=200))
        best = hub.loc_rib.get(prefix)
        assert best.peer_asn == 1 and best.link_id == sessions[0].link.link_id
        assert rescans == []  # old best local: decided without a scan
        assert hub.verify_decisions() == []
        # A worse route elsewhere changes nothing, still without a scan.
        announce(hub, sessions[1], prefix, attrs(2, 9))
        assert hub.loc_rib.get(prefix) is best
        assert rescans == []
        assert hub.verify_decisions() == []

    def test_withdrawal_on_another_link_changes_nothing(self, monkeypatch):
        _, hub, sessions = hub_network([1, 2])
        prefix = PREFIXES[0]
        announce(hub, sessions[0], prefix, attrs(1))
        announce(hub, sessions[1], prefix, attrs(2, 9))
        best = hub.loc_rib.get(prefix)
        rescans = count_rescans(monkeypatch, hub)
        withdraw(hub, sessions[1], prefix)
        assert hub.loc_rib.get(prefix) is best
        assert rescans == []
        assert hub.verify_decisions() == []


class TestWhenItRescans:
    def test_withdrawal_of_the_bests_own_link(self, monkeypatch):
        _, hub, sessions = hub_network([1, 2, 3])
        prefix = PREFIXES[0]
        announce(hub, sessions[0], prefix, attrs(1))
        announce(hub, sessions[1], prefix, attrs(2, 9, 9))
        announce(hub, sessions[2], prefix, attrs(3, 9))
        assert hub.loc_rib.get(prefix).peer_asn == 1
        rescans = count_rescans(monkeypatch, hub)
        withdraw(hub, sessions[0], prefix)
        assert rescans == [prefix]
        assert hub.loc_rib.get(prefix).peer_asn == 3
        assert hub.verify_decisions() == []

    def test_worse_route_on_the_bests_own_link(self, monkeypatch):
        _, hub, sessions = hub_network([1, 2])
        prefix = PREFIXES[0]
        announce(hub, sessions[0], prefix, attrs(1))
        announce(hub, sessions[1], prefix, attrs(2, 9))
        rescans = count_rescans(monkeypatch, hub)
        announce(hub, sessions[0], prefix, attrs(1, 9, 9))
        assert rescans == [prefix]
        assert hub.loc_rib.get(prefix).peer_asn == 2
        assert hub.verify_decisions() == []

    def test_exact_key_tie_breaks_by_link_order(self, monkeypatch):
        # Two parallel sessions to AS1: same peer ASN and name, so equal
        # attributes sort equal and only the scan's link order decides.
        _, hub, sessions = hub_network([1], parallel=[1])
        first, second = sessions
        assert first.link.link_id < second.link.link_id
        prefix = PREFIXES[0]
        announce(hub, second, prefix, attrs(1, 9))
        rescans = count_rescans(monkeypatch, hub)
        announce(hub, first, prefix, attrs(1, 9))
        assert rescans == [prefix]
        assert hub.verify_decisions() == []
        assert hub.candidates(prefix) == hub._scan_candidates(prefix)

    def test_router_with_a_damper_always_scans(self, monkeypatch):
        _, hub, sessions = hub_network([1, 2], damping=DampingConfig())
        rescans = count_rescans(monkeypatch, hub)
        prefix = PREFIXES[0]
        announce(hub, sessions[0], prefix, attrs(1))
        announce(hub, sessions[1], prefix, attrs(2, 9))
        withdraw(hub, sessions[1], prefix)
        assert rescans == [prefix] * 3
        assert hub.decisions_run == 3
        assert hub.verify_decisions() == []
