"""Per-message link delivery: order, direction, accounting, re-entrancy.

Every transmission is its own kernel event.  These cases once held the
(since deleted) same-instant coalescing mode to the plain path's
per-message contract; they stay, pointed at the one delivery path left,
because nothing else pins same-instant send order, background vs
foreground accounting, a latency change between two sends of one
instant, or a zero-latency reply sent from inside ``receive``.
"""

from repro.net.link import LinkDown
from repro.net.messages import Message
from tests.net.test_link import Probe, make_probe_pair


class TestDefaultOff:
    def test_plain_links_do_not_batch(self, net):
        a, b, link = make_probe_pair(net, latency=0.5)
        for _ in range(3):
            link.transmit(a, Message())
        net.sim.run()
        assert [t for t, _ in b.inbox] == [0.5] * 3
        # one delivery event per message, same instant or not
        assert net.sim.events_processed == 3


class TestCoalescing:
    def test_send_order_preserved_within_batch(self, net):
        a, b, link = make_probe_pair(net, latency=0.1)
        sent = [Message() for _ in range(4)]
        for message in sent:
            link.transmit(a, message)
        net.sim.run()
        assert [m for _, m in b.inbox] == sent

    def test_different_instants_do_not_coalesce(self, net):
        a, b, link = make_probe_pair(net, latency=0.5)
        link.transmit(a, Message())
        net.sim.schedule(0.2, lambda: link.transmit(a, Message()))
        net.sim.run()
        assert [t for t, _ in b.inbox] == [0.5, 0.7]

    def test_directions_batch_independently(self, net):
        a, b, link = make_probe_pair(net, latency=0.5)
        link.transmit(a, Message())
        link.transmit(b, Message())
        link.transmit(a, Message())
        net.sim.run()
        assert len(b.inbox) == 2 and len(a.inbox) == 1

    def test_background_and_foreground_do_not_mix(self, net):
        # A background delivery is invisible to convergence detection;
        # a foreground one sent at the same instant is not.
        a, b, link = make_probe_pair(net, latency=0.5)
        link.transmit(a, Message(), background=True)
        link.transmit(a, Message())
        assert net.sim.pending_foreground() == 1
        net.sim.run()
        assert len(b.inbox) == 2

    def test_latency_change_mid_instant_splits_batches(self, net):
        a, b, link = make_probe_pair(net, latency=0.5)
        link.transmit(a, Message())
        link.set_latency(0.8)
        link.transmit(a, Message())
        net.sim.run()
        assert [t for t, _ in b.inbox] == [0.5, 0.8]


class TestLegacyInvariants:
    def test_loss_is_still_per_message(self, net):
        a, b, link = make_probe_pair(net, loss=0.5)
        for _ in range(200):
            link.transmit(a, Message())
        net.sim.run()
        assert 40 < len(b.inbox) < 160
        assert link.drop_count + link.tx_count == 200
        assert len(b.inbox) == link.tx_count

    def test_down_link_still_raises(self, net):
        a, b, link = make_probe_pair(net)
        link.fail()
        try:
            link.transmit(a, Message())
        except LinkDown:
            pass
        else:
            raise AssertionError("transmit on a down link must raise")

    def test_zero_latency_reply_opens_fresh_batch(self, net):
        # A reply sent from inside receive() lands at the same instant
        # as the delivery that provoked it and must still arrive.
        class Echo(Probe):
            def handle_message(self, link, message):
                super().handle_message(link, message)
                if self.name == "b":
                    link.transmit(self, Message())

        a = net.add_node(Echo(net.sim, "a"))
        b = net.add_node(Echo(net.sim, "b"))
        link = net.add_link(a, b, latency=0.0)
        link.transmit(a, Message())
        net.sim.run()
        assert len(b.inbox) == 1 and len(a.inbox) == 1
