"""Unit tests for links: latency, loss, up/down semantics."""

import pytest

from repro.net.link import Link, LinkDown
from repro.net.messages import Message
from repro.net.node import Node


def make_pair(net, latency=0.5, **kwargs):
    a = net.add_node(Node(net.sim, "a"))
    b = net.add_node(Node(net.sim, "b"))
    link = net.add_link(a, b, latency=latency, **kwargs)
    return a, b, link


class Probe(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []

    def handle_message(self, link, message):
        self.inbox.append((self.sim.now, message))


def make_probe_pair(net, **kwargs):
    a = net.add_node(Probe(net.sim, "a"))
    b = net.add_node(Probe(net.sim, "b"))
    link = net.add_link(a, b, **kwargs)
    return a, b, link


class TestTransmit:
    def test_delivery_after_latency(self, net):
        a, b, link = make_probe_pair(net, latency=0.5)
        link.transmit(a, Message())
        net.sim.run()
        assert b.inbox and b.inbox[0][0] == 0.5

    def test_bidirectional(self, net):
        a, b, link = make_probe_pair(net)
        link.transmit(b, Message())
        net.sim.run()
        assert a.inbox

    def test_transmit_on_down_link_raises(self, net):
        a, b, link = make_probe_pair(net)
        link.fail()
        with pytest.raises(LinkDown):
            link.transmit(a, Message())

    def test_inflight_message_survives_link_failure(self, net):
        """Messages already on the wire are delivered (they left)."""
        a, b, link = make_probe_pair(net, latency=1.0)
        link.transmit(a, Message())
        net.sim.schedule(0.5, link.fail)
        net.sim.run()
        assert len(b.inbox) == 1

    def test_loss_drops_some_messages(self, net):
        a, b, link = make_probe_pair(net, loss=0.5)
        for _ in range(200):
            link.transmit(a, Message())
        net.sim.run()
        assert 40 < len(b.inbox) < 160
        assert link.drop_count + link.tx_count == 200

    def test_zero_loss_delivers_everything(self, net):
        a, b, link = make_probe_pair(net)
        for _ in range(50):
            link.transmit(a, Message())
        net.sim.run()
        assert len(b.inbox) == 50


class TestTopologyChecks:
    def test_self_loop_rejected(self, net):
        a = net.add_node(Node(net.sim, "a"))
        with pytest.raises(ValueError):
            Link(a, a)

    def test_negative_latency_rejected(self, net):
        a = net.add_node(Node(net.sim, "a"))
        b = net.add_node(Node(net.sim, "b"))
        with pytest.raises(ValueError):
            Link(a, b, latency=-1.0)

    def test_invalid_loss_rejected(self, net):
        a = net.add_node(Node(net.sim, "a"))
        b = net.add_node(Node(net.sim, "b"))
        with pytest.raises(ValueError):
            Link(a, b, loss=1.0)

    def test_other_endpoint(self, net):
        a, b, link = make_pair(net)
        assert link.other(a) is b and link.other(b) is a

    def test_other_rejects_stranger(self, net):
        a, b, link = make_pair(net)
        c = net.add_node(Node(net.sim, "c"))
        with pytest.raises(ValueError):
            link.other(c)

    def test_connects(self, net):
        a, b, link = make_pair(net)
        assert link.connects(b, a)


class TestUpDown:
    def test_state_change_notifies_both_ends(self, net):
        notified = []

        class Watcher(Node):
            def link_state_changed(self, link):
                notified.append(self.name)

        a = net.add_node(Watcher(net.sim, "a"))
        b = net.add_node(Watcher(net.sim, "b"))
        link = net.add_link(a, b)
        link.fail()
        assert sorted(notified) == ["a", "b"]

    def test_redundant_state_change_is_silent(self, net):
        a, b, link = make_pair(net)
        link.fail()
        count = []

        class Watcher(Node):
            def link_state_changed(self, link):
                count.append(1)

        link.fail()  # already down
        assert link.up is False

    def test_restore(self, net):
        a, b, link = make_probe_pair(net)
        link.fail()
        link.restore()
        link.transmit(a, Message())
        net.sim.run()
        assert b.inbox
