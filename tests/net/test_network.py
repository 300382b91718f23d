"""Unit tests for the Network container and data-plane walks."""

import pytest

from repro.framework.experiment import Experiment, ExperimentConfig
from repro.net.addr import IPv4Address, Prefix
from repro.net.dataplane import FibEntry
from repro.net.node import Node
from repro.topology.builders import clique


def build_line(net, n=3):
    nodes = []
    for i in range(1, n + 1):
        node = net.add_node(Node(net.sim, f"n{i}"))
        node.address = IPv4Address.parse(f"10.0.{i}.1")
        node.add_local_prefix(Prefix.parse(f"10.0.{i}.0/24"))
        nodes.append(node)
    links = [net.add_link(nodes[i], nodes[i + 1]) for i in range(n - 1)]
    for i, node in enumerate(nodes):
        for j in range(n):
            if i == j:
                continue
            out = links[i] if j > i else links[i - 1]
            node.fib.install(
                FibEntry(Prefix.parse(f"10.0.{j + 1}.0/24"), out, via="")
            )
    return nodes, links


class TestInventory:
    def test_duplicate_node_name_rejected(self, net):
        net.add_node(Node(net.sim, "x"))
        with pytest.raises(ValueError):
            net.add_node(Node(net.sim, "x"))

    def test_get_unknown_raises(self, net):
        with pytest.raises(KeyError):
            net.get("ghost")

    def test_add_link_by_name(self, net):
        net.add_node(Node(net.sim, "a"))
        net.add_node(Node(net.sim, "b"))
        link = net.add_link("a", "b")
        assert link.connects(net.get("a"), net.get("b"))

    def test_link_between(self, net):
        nodes, links = build_line(net, 3)
        assert net.link_between("n1", "n2") is links[0]
        assert net.link_between("n1", "n3") is None

    def test_nodes_of_type(self, net):
        build_line(net, 2)
        assert len(net.nodes_of_type(Node)) == 2

    def test_every_node_publishes_on_the_simulators_bus(self):
        exp = Experiment(
            clique(4), sdn_members={3, 4},
            config=ExperimentConfig(seed=1, spans=True),
        ).build()
        bus = exp.net.sim.bus
        assert exp.net.bus is bus
        assert exp.controller is not None and exp.collector is not None
        assert all(node.bus is bus for node in exp.net.nodes.values())
        assert [s.name for s in bus.subscriptions] == ["spans"]


class TestTracePath:
    def test_reaches_destination(self, net):
        nodes, _ = build_line(net, 4)
        result = net.trace_path(nodes[0], nodes[3].address)
        assert result.reached
        assert result.hops == ["n1", "n2", "n3", "n4"]

    def test_trace_path_is_instant(self, net):
        nodes, _ = build_line(net, 4)
        net.trace_path(nodes[0], nodes[3].address)
        assert net.sim.now == 0.0

    def test_no_route_fails_with_reason(self, net):
        nodes, _ = build_line(net, 2)
        result = net.trace_path(nodes[0], IPv4Address.parse("203.0.113.1"))
        assert not result.reached
        assert "no route" in result.reason

    def test_down_link_fails(self, net):
        nodes, links = build_line(net, 3)
        links[1].up = False
        result = net.trace_path(nodes[0], nodes[2].address)
        assert not result.reached
        assert "link down" in result.reason

    def test_loop_detected(self, net):
        a = net.add_node(Node(net.sim, "a"))
        b = net.add_node(Node(net.sim, "b"))
        link = net.add_link(a, b)
        dest = Prefix.parse("10.9.0.0/16")
        a.fib.install(FibEntry(dest, link, via="b"))
        b.fib.install(FibEntry(dest, link, via="a"))
        result = net.trace_path(a, IPv4Address.parse("10.9.0.1"))
        assert not result.reached
        assert "loop" in result.reason

    def test_bool_conversion(self, net):
        nodes, _ = build_line(net, 2)
        assert net.trace_path(nodes[0], nodes[1].address)


class TestAllPairs:
    def test_full_matrix(self, net):
        nodes, _ = build_line(net, 3)
        matrix = net.all_pairs_reachable()
        assert len(matrix) == 6
        assert all(t.reached for t in matrix.values())

    def test_unaddressed_nodes_skipped(self, net):
        nodes, _ = build_line(net, 2)
        net.add_node(Node(net.sim, "unaddressed"))
        matrix = net.all_pairs_reachable()
        assert len(matrix) == 2


class TestGraphExport:
    def test_to_graph_has_phys_links(self, net):
        nodes, _ = build_line(net, 3)
        graph = net.to_graph()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2

    def test_down_links_excluded_by_default(self, net):
        nodes, links = build_line(net, 3)
        links[0].up = False
        assert net.to_graph().number_of_edges() == 1
        assert net.to_graph(include_down=True).number_of_edges() == 2

    def test_kind_filter(self, net):
        nodes, _ = build_line(net, 2)
        net.add_node(Node(net.sim, "c"))
        net.add_link("n1", "c", kind="control")
        assert net.to_graph().number_of_edges() == 1
        assert net.to_graph(kinds=("phys", "control")).number_of_edges() == 2
