"""The plain-dict controller graphs against the networkx oracle, and the
cached view's invalidation.

Tier-1 twin of ``tests/properties/test_controller_oracle.py``: the same
random clusters from fixed seeds, no hypothesis needed.
"""

import random

import pytest

from repro.bgp.session import BGPTimers
from repro.controller.graphs import SwitchGraph, build_as_topology
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.sdn.messages import PortStatus
from repro.topology.builders import line

from .nx_oracle import PFX, check_case, random_case


@pytest.mark.parametrize("block", range(6))
def test_random_clusters_match_networkx_oracle(block):
    for seed in range(block * 40, (block + 1) * 40):
        check_case(random_case(random.Random(seed)))


def test_random_cases_cover_the_interesting_shapes():
    """The generator reaches what the oracle comparison is for: split
    clusters, loop-rejected routes, routes through another sub-cluster,
    and equal-cost alternatives."""
    split = rejected = crossing = ties = 0
    for seed in range(240):
        case = random_case(random.Random(seed))
        graph = SwitchGraph()
        for name in case["members"]:
            graph.add_member(name, case["asn"][name])
        for a, b in case["links"]:
            graph.add_intra_link(a, b, f"{a}--{b}")
        for (a, b), up in case["flips"]:
            graph.set_link_state(a, b, up)
        view = graph.view()
        split += len(view.sub_clusters) > 1
        member_asns = set(case["asn"].values())
        lengths = set()
        for route in case["routes"]:
            own = view.cluster_asns.get(route["member"])
            if own is None or route["prefix"] != PFX:
                continue
            on_path = set(route["path"])
            rejected += bool(on_path & own)
            crossing += bool(on_path & (member_asns - own))
            ties += (route["member"], len(route["path"])) in lengths
            lengths.add((route["member"], len(route["path"])))
    assert min(split, rejected, crossing, ties) >= 20


def chain():
    graph = SwitchGraph()
    for i, name in enumerate(("m1", "m2", "m3"), start=101):
        graph.add_member(name, i)
    graph.add_intra_link("m1", "m2", "m1--m2")
    graph.add_intra_link("m2", "m3", "m2--m3")
    return graph


class TestViewCache:
    """The view is derived once per link-state change — and never
    outlives one."""

    def test_reused_across_prefixes_and_recomputes(self):
        graph = chain()
        view = graph.view()
        first = build_as_topology(graph, PFX, [])
        second = build_as_topology(graph, PFX, [], ["m1"])
        assert graph.view() is view
        assert first.neighbors is second.neighbors is view.neighbors
        graph.sub_clusters()
        graph.up_neighbors("m2")
        graph.members()
        assert graph.view() is view

    def test_link_down_and_up_after_first_use(self):
        graph = chain()
        build_as_topology(graph, PFX, [])
        before = graph.view()
        graph.set_link_state("m2", "m3", False)
        assert graph.view() is not before
        assert graph.sub_clusters() == [
            frozenset({"m1", "m2"}), frozenset({"m3"}),
        ]
        assert graph.up_neighbors("m2") == ["m1"]
        assert graph.view().cluster_asns["m3"] == frozenset({103})
        assert build_as_topology(graph, PFX, []).neighbors["m3"] == ()
        graph.set_link_state("m2", "m3", True)
        assert graph.sub_clusters() == [frozenset({"m1", "m2", "m3"})]
        assert build_as_topology(graph, PFX, []).neighbors["m3"] == ("m2",)

    def test_unknown_link_leaves_view_alone(self):
        graph = chain()
        view = graph.view()
        assert graph.set_link_state("m1", "m3", False) is False
        assert graph.set_link_state("m1", "ghost", False) is False
        assert graph.view() is view

    def test_add_intra_link_after_first_use(self):
        graph = chain()
        graph.set_link_state("m1", "m2", False)
        assert len(graph.sub_clusters()) == 2
        graph.add_intra_link("m1", "m3", "m1--m3")
        assert graph.sub_clusters() == [frozenset({"m1", "m2", "m3"})]
        assert graph.up_neighbors("m1") == ["m3"]
        assert build_as_topology(graph, PFX, []).neighbors["m3"] == (
            "m1", "m2",
        )

    def test_add_member_after_first_use(self):
        graph = chain()
        assert build_as_topology(graph, PFX, []).members == ("m1", "m2", "m3")
        graph.add_member("m0", 100)
        assert graph.members() == ["m0", "m1", "m2", "m3"]
        assert graph.sub_clusters()[0] == frozenset({"m0"})
        assert graph.up_neighbors("m0") == []
        topo = build_as_topology(graph, PFX, [], ["m0"])
        assert topo.members == ("m0", "m1", "m2", "m3")

    def test_earlier_topology_keeps_its_own_state(self):
        graph = chain()
        topo = build_as_topology(graph, PFX, [])
        graph.set_link_state("m1", "m2", False)
        assert topo.neighbors["m1"] == ("m2",)


def hybrid_line():
    """line 1-2-3-4, members {2, 3}: one intra-cluster link, as2--as3."""
    config = ExperimentConfig(
        seed=1,
        timers=BGPTimers(mrai=1.0),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    return Experiment(line(4), sdn_members={2, 3}, config=config).start()


class TestControllerSeesLinkState:
    def test_port_status_invalidates_between_recomputes(self):
        exp = hybrid_line()
        controller = exp.controller
        graph = controller.switch_graph
        controller.flush_now()
        view = graph.view()
        controller.mark_dirty(controller.known_prefixes())
        controller.flush_now()
        assert graph.view() is view  # no graph change: same view
        controller.handle_message(
            None, PortStatus(switch="as2", peer="as3", up=False)
        )
        assert graph.view() is not view
        assert graph.sub_clusters() == [
            frozenset({"as2"}), frozenset({"as3"}),
        ]
        controller.flush_now()
        decision = controller.decisions[exp.as_prefix(4)]["as2"]
        assert decision.kind != "forward"  # as3 is another sub-cluster now

    def test_recover_resyncs_links_changed_during_outage(self):
        exp = hybrid_line()
        controller = exp.controller
        assert len(controller.switch_graph.sub_clusters()) == 1
        controller.fail()
        exp.fail_link(2, 3)  # the PortStatus is dropped while down
        exp.wait_converged()
        assert len(controller.switch_graph.sub_clusters()) == 1
        controller.recover()
        assert len(controller.switch_graph.sub_clusters()) == 2
        assert controller.switch_graph.up_neighbors("as2") == []
        exp.wait_converged()
        assert controller.decisions[exp.as_prefix(4)]["as2"].kind != "forward"
