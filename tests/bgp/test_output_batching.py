"""Tests for the session's output-batching window.

Near-simultaneous decision changes must leave in ONE UPDATE (one MRAI
round), like a real bgpd's periodic output runs — the behaviour that
keeps multi-prefix events (session loss, node failure) from burning one
MRAI round per prefix.
"""

from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.net.addr import Prefix


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
    def test_simultaneous_originations_share_one_update(self, net):
        a, b = make_pair(net)
        t0 = net.sim.now
        a.originate(Prefix.parse("192.168.0.0/24"))
        a.originate(Prefix.parse("192.168.1.0/24"))
        a.originate(Prefix.parse("192.168.2.0/24"))
        net.sim.run_until_settled()
        updates = [
            r for r in net.trace.filter(
                category="bgp.update.rx", node="b", since=t0
            )
            if r.data["announced"]
        ]
        assert len(updates) == 1
        assert len(updates[0].data["announced"]) == 3

    def test_batched_update_arrives_within_output_window(self, net):
        a, b = make_pair(net)
        t0 = net.sim.now
        a.originate(Prefix.parse("192.168.0.0/24"))
        net.sim.run_until_settled()
        rx = net.trace.filter(category="bgp.update.rx", node="b", since=t0)
        # output window (10ms) + latency (10ms) + proc jitter
        assert rx[0].time - t0 < 0.1

    def test_flap_within_window_cancels_out(self, net):
        """Announce+withdraw inside one window -> nothing on the wire."""
        a, b = make_pair(net)
        t0 = net.sim.now
        prefix = Prefix.parse("192.168.0.0/24")
        a.originate(prefix)
        a.withdraw(prefix)  # same instant, before the output run
        net.sim.run_until_settled()
        rx = net.trace.filter(category="bgp.update.rx", node="b", since=t0)
        assert rx == []

    def test_session_loss_batches_all_withdrawals(self, net):
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
            r for r in net.trace.filter(
                category="bgp.update.tx", node="r2", since=t0
            )
            if r.data["peer"] == "r3" and r.data["withdrawn"]
        ]
        assert len(withdrawal_updates) >= 1
        first = withdrawal_updates[0]
        assert len(first.data["withdrawn"]) + len(first.data["announced"]) >= 4
