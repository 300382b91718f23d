"""Tests for the session's output-batching window.

Near-simultaneous decision changes must leave in ONE UPDATE (one MRAI
round), like a real bgpd's periodic output runs — the behaviour that
keeps multi-prefix events (session loss, node failure) from burning one
MRAI round per prefix.
"""

import random

import pytest

from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.experiments.common import paper_config
from repro.framework.experiment import Experiment
from repro.net.addr import Prefix
from repro.topology.builders import clique
from tests.conftest import make_bgp_mesh, select

PFX = Prefix.parse("192.168.0.0/24")


def make_pair(net, mrai=30.0):
    timers = BGPTimers(mrai=mrai, mrai_jitter=0.0)
    a = net.add_node(BGPRouter(net.sim, "a", asn=1, timers=timers))
    b = net.add_node(BGPRouter(net.sim, "b", asn=2, timers=timers))
    link = net.add_link(a, b, latency=0.01)
    a.add_peer(link)
    b.add_peer(link)
    a.start()
    b.start()
    net.sim.run_until_settled()
    return a, b


class TestBatching:
    def test_simultaneous_originations_share_one_update(self, net, records):
        a, b = make_pair(net)
        t0 = net.sim.now
        a.originate(Prefix.parse("192.168.0.0/24"))
        a.originate(Prefix.parse("192.168.1.0/24"))
        a.originate(Prefix.parse("192.168.2.0/24"))
        net.sim.run_until_settled()
        updates = [
            r for r in select(records, 
                category="bgp.update.rx", node="b", since=t0
            )
            if r.data["announced"]
        ]
        assert len(updates) == 1
        assert len(updates[0].data["announced"]) == 3

    def test_batched_update_arrives_within_output_window(self, net, records):
        a, b = make_pair(net)
        t0 = net.sim.now
        a.originate(Prefix.parse("192.168.0.0/24"))
        net.sim.run_until_settled()
        rx = select(records, category="bgp.update.rx", node="b", since=t0)
        # output window (10ms) + latency (10ms) + proc jitter
        assert rx[0].time - t0 < 0.1

    def test_flap_within_window_cancels_out(self, net, records):
        """Announce+withdraw inside one window -> nothing on the wire."""
        a, b = make_pair(net)
        t0 = net.sim.now
        prefix = Prefix.parse("192.168.0.0/24")
        a.originate(prefix)
        a.withdraw(prefix)  # same instant, before the output run
        net.sim.run_until_settled()
        rx = select(records, category="bgp.update.rx", node="b", since=t0)
        assert rx == []

    def test_session_loss_batches_all_withdrawals(self, net, records):
        """Losing a peer with many prefixes -> one UPDATE to others."""
        timers = BGPTimers(mrai=30.0, mrai_jitter=0.0,
                           withdrawal_rate_limited=True)
        nodes = []
        for i in (1, 2, 3):
            node = net.add_node(
                BGPRouter(net.sim, f"r{i}", asn=i, timers=timers)
            )
            nodes.append(node)
        links = {}
        for i in range(3):
            for j in range(i + 1, 3):
                link = net.add_link(nodes[i], nodes[j], latency=0.01)
                nodes[i].add_peer(link)
                nodes[j].add_peer(link)
                links[(i, j)] = link
        for node in nodes:
            node.start()
        net.sim.run_until_settled()
        for k in range(4):
            nodes[0].originate(Prefix.parse(f"192.168.{k}.0/24"))
        net.sim.run_until_settled()
        t0 = net.sim.now
        links[(0, 1)].fail()  # r2 loses r1 and must withdraw 4 prefixes
        net.sim.run_until_settled()
        # r2's withdrawals toward r3 ride one UPDATE (they were batched);
        # exploration announces may follow but the withdrawal burst is one.
        withdrawal_updates = [
            r for r in select(records, 
                category="bgp.update.tx", node="r2", since=t0
            )
            if r.data["peer"] == "r3" and r.data["withdrawn"]
        ]
        assert len(withdrawal_updates) >= 1
        first = withdrawal_updates[0]
        assert len(first.data["withdrawn"]) + len(first.data["announced"]) >= 4


def advanced(state, draws):
    """The ``random.Random`` state ``draws`` values after ``state``."""
    rng = random.Random()
    rng.setstate(state)
    for _ in range(draws):
        rng.random()
    return rng.getstate()


#: (mrai, mrai_jitter, bgp.mrai draws per output run)
DRAW_CASES = [(30.0, 0.25, 1), (30.0, 0.0, 0), (0.0, 0.25, 0)]


class TestMraiDrawContract:
    """Every output run draws its jittered MRAI period, sent or not,
    and a fixed or zero MRAI draws nothing: the draw order on the one
    ``bgp.mrai`` stream all sessions share is part of every pinned
    result."""

    @pytest.mark.parametrize("mrai, jitter, draws", DRAW_CASES)
    def test_run_that_sends_nothing(self, net, mrai, jitter, draws):
        a, b = make_bgp_mesh(
            net, 2, timers=BGPTimers(mrai=mrai, mrai_jitter=jitter)
        )
        a.originate(PFX)
        net.sim.run_until_settled()
        # b's best came from a: split horizon leaves b nothing to send a
        session = next(iter(b.sessions.values()))
        rng = net.sim.rng("bgp.mrai")
        state = rng.getstate()
        sent = session.updates_sent
        session.schedule_route(PFX)  # an output run, through the kernel
        net.sim.run_until_settled()
        assert session.updates_sent == sent
        assert session.mrai_expires_at is None
        assert rng.getstate() == advanced(state, draws)

    @pytest.mark.parametrize("mrai, jitter, draws", DRAW_CASES)
    def test_run_that_sends(self, net, mrai, jitter, draws):
        timers = BGPTimers(mrai=mrai, mrai_jitter=jitter)
        a, b = make_bgp_mesh(net, 2, timers=timers)
        session = next(iter(a.sessions.values()))
        rng = net.sim.rng("bgp.mrai")
        state = rng.getstate()
        a.originate(PFX)
        # up to a's output run, before b hears of it (and draws too)
        net.sim.run(until=net.sim.now + timers.output_delay)
        assert session.updates_sent == 1
        assert rng.getstate() == advanced(state, draws)
        if mrai == 0:
            assert session.mrai_expires_at is None
            return
        replay = random.Random()
        replay.setstate(state)
        low = mrai * (1.0 - jitter)
        period = low + (mrai - low) * replay.random() if draws else mrai
        assert session.mrai_expires_at == net.sim.now + period

    def test_cluster_speaker_sessions_draw_nothing(self):
        """The speaker's sessions run with MRAI 0: its output runs, sent
        or not, leave ``bgp.mrai`` alone."""
        exp = Experiment(
            clique(5), sdn_members={4, 5},
            config=paper_config(seed=3, mrai=30.0),
        ).start()
        prefix = exp.announce(1)
        exp.wait_converged()
        sim = exp.net.sim
        speaker = exp.speaker
        toward = [
            s for s in speaker.sessions.values()
            if s.rib_out.get(prefix) is not None
        ]
        assert len(toward) > 1 and all(s.timers.mrai == 0 for s in toward)
        rng = sim.rng("bgp.mrai")
        state = rng.getstate()
        quiet, resent = toward[0], toward[-1]
        # a run with nothing to send, and one that re-sends a route
        # Adj-RIB-Out no longer holds
        resent.rib_out.mark_sent(prefix, None)
        before = quiet.updates_sent, resent.updates_sent
        quiet.schedule_route(prefix)
        resent.schedule_route(prefix)
        assert quiet._flush_event is not None
        sim.run(until=sim.now + quiet.timers.output_delay)
        assert quiet._flush_event is None
        assert quiet.updates_sent == before[0]
        assert resent.updates_sent == before[1] + 1
        assert resent.mrai_expires_at is None
        assert rng.getstate() == state
