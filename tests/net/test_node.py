"""Unit tests for node forwarding, local delivery, ping, hosts."""

from repro.net.addr import IPv4Address, Prefix
from repro.net.dataplane import FibEntry
from repro.net.messages import Packet, PING_PROTO, PROBE_PROTO
from repro.net.node import Host, Node
from tests.conftest import select


def addr(text):
    return IPv4Address.parse(text)


def make_chain(net, n=3):
    """a line of nodes n1 - n2 - ... with addresses 10.0.i.1."""
    nodes = [net.add_node(Node(net.sim, f"n{i}")) for i in range(1, n + 1)]
    for i, node in enumerate(nodes):
        node.address = addr(f"10.0.{i + 1}.1")
        node.add_local_prefix(Prefix.parse(f"10.0.{i + 1}.0/24"))
    links = [
        net.add_link(nodes[i], nodes[i + 1], latency=0.01)
        for i in range(n - 1)
    ]
    # static routes along the chain, both directions
    for i, node in enumerate(nodes):
        for j in range(n):
            if j == i:
                continue
            out = links[i] if j > i else links[i - 1]
            node.fib.install(
                FibEntry(Prefix.parse(f"10.0.{j + 1}.0/24"), out, via="next")
            )
    return nodes, links


class TestForwarding:
    def test_multi_hop_delivery_and_hops(self, net):
        nodes, _ = make_chain(net, 3)
        packet = Packet(src=nodes[0].address, dst=nodes[2].address, proto="raw")
        nodes[0].send_packet(packet)
        net.sim.run()
        assert packet.hops == ["n1", "n2", "n3"]

    def test_ttl_decrements_per_hop(self, net):
        nodes, _ = make_chain(net, 3)
        packet = Packet(src=nodes[0].address, dst=nodes[2].address, ttl=64, proto="raw")
        nodes[0].send_packet(packet)
        net.sim.run()
        assert packet.ttl == 62

    def test_ttl_expiry_drops(self, net, records):
        nodes, _ = make_chain(net, 3)
        packet = Packet(src=nodes[0].address, dst=nodes[2].address, ttl=1, proto="raw")
        nodes[0].send_packet(packet)
        net.sim.run()
        assert nodes[1].packets_dropped == 1
        drops = select(records, category="packet.drop")
        assert drops and drops[0].data["reason"] == "ttl_expired"

    def test_no_route_drops(self, net):
        node = net.add_node(Node(net.sim, "lone"))
        node.address = addr("10.0.1.1")
        packet = Packet(src=node.address, dst=addr("203.0.113.1"), proto="raw")
        node.send_packet(packet)
        assert node.packets_dropped == 1

    def test_down_link_drops(self, net):
        nodes, links = make_chain(net, 2)
        links[0].up = False  # silently down (no notification)
        packet = Packet(src=nodes[0].address, dst=nodes[1].address, proto="raw")
        nodes[0].send_packet(packet)
        assert nodes[0].packets_dropped == 1

    def test_forward_counter(self, net):
        nodes, _ = make_chain(net, 3)
        nodes[0].send_packet(
            Packet(src=nodes[0].address, dst=nodes[2].address, proto="raw")
        )
        net.sim.run()
        assert nodes[0].packets_forwarded == 1
        assert nodes[1].packets_forwarded == 1


class TestLocalDelivery:
    def test_own_address_delivers_locally(self, net):
        nodes, _ = make_chain(net, 2)
        got = []
        nodes[1].handle_local_packet = lambda link, p: got.append(p)
        nodes[0].send_packet(
            Packet(src=nodes[0].address, dst=nodes[1].address, proto="raw")
        )
        net.sim.run()
        assert len(got) == 1

    def test_more_specific_route_beats_owned_prefix(self, net):
        """An owned /24 must not swallow traffic for an attached /32."""
        a = net.add_node(Node(net.sim, "a"))
        h = net.add_node(Node(net.sim, "h"))
        a.address = addr("10.0.1.1")
        a.add_local_prefix(Prefix.parse("10.0.1.0/24"))
        h.address = addr("10.0.1.50")
        stub = net.add_link(a, h)
        a.fib.install(FibEntry(Prefix.parse("10.0.1.50/32"), stub, via="h"))
        got = []
        h.handle_local_packet = lambda link, p: got.append(p)
        packet = Packet(src=addr("10.0.1.1"), dst=addr("10.0.1.50"), proto="raw")
        a.send_packet(packet)
        net.sim.run()
        assert len(got) == 1

    def test_local_fib_entry_delivers(self, net):
        node = net.add_node(Node(net.sim, "n"))
        node.address = addr("10.0.0.1")
        node.fib.install(FibEntry(Prefix.parse("10.9.0.0/16"), None, via="local"))
        got = []
        node.handle_local_packet = lambda link, p: got.append(p)
        node.send_packet(Packet(src=node.address, dst=addr("10.9.1.1"), proto="raw"))
        assert len(got) == 1


class TestPing:
    def test_ping_reply_roundtrip(self, net):
        nodes, _ = make_chain(net, 3)
        ping = Packet(
            src=nodes[0].address, dst=nodes[2].address,
            proto=PING_PROTO, seq=7,
        )
        nodes[0].send_packet(ping)
        net.sim.run()
        assert 7 in nodes[0].echo_replies_received
        # 2 hops each way at 0.01s
        assert abs(nodes[0].echo_replies_received[7] - 0.04) < 1e-9

    def test_ping_to_self(self, net):
        node = net.add_node(Node(net.sim, "n"))
        node.address = addr("10.0.0.1")
        node.send_packet(
            Packet(src=node.address, dst=node.address, proto=PING_PROTO, seq=1)
        )
        net.sim.run()
        assert 1 in node.echo_replies_received


class TestHost:
    def test_host_counts_probes(self, net):
        nodes, _ = make_chain(net, 2)
        host = net.add_node(Host(net.sim, "h"))
        host.address = addr("10.0.2.99")
        link = net.add_link(nodes[1], host)
        nodes[1].fib.install(
            FibEntry(Prefix.parse("10.0.2.99/32"), link, via="h")
        )
        nodes[0].send_packet(
            Packet(src=nodes[0].address, dst=host.address, proto=PROBE_PROTO, seq=3)
        )
        net.sim.run()
        assert [p.seq for p in host.probes_received] == [3]

    def test_host_still_answers_ping(self, net):
        host = net.add_node(Host(net.sim, "h"))
        host.address = addr("10.0.0.5")
        host.send_packet(
            Packet(src=host.address, dst=host.address, proto=PING_PROTO, seq=2)
        )
        net.sim.run()
        assert 2 in host.echo_replies_received

    def test_neighbors_and_link_to(self, net):
        nodes, links = make_chain(net, 3)
        assert set(n.name for n in nodes[1].neighbors()) == {"n1", "n3"}
        assert nodes[0].link_to(nodes[1]) is links[0]
        assert nodes[0].link_to(nodes[2]) is None
