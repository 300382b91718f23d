"""Unit tests for Quagga/ExaBGP config rendering."""

import dataclasses
import pathlib

from repro.bgp.policy import Relationship, gao_rexford_policy
from repro.bgp.session import BGPTimers
from repro.config.templates import (
    render_bgpd_conf,
    render_exabgp_conf,
    render_route_map,
)
from repro.bgp.router import BGPRouter
from repro.controller.idr import ControllerConfig
from repro.experiments.common import paper_config
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.net.addr import Prefix
from repro.topology.builders import clique
from repro.topology.caida import synthetic_caida_topology
from tests.conftest import make_bgp_mesh

GOLDEN = pathlib.Path(__file__).parent / "golden"


def hybrid_experiment():
    config = ExperimentConfig(
        seed=1,
        timers=BGPTimers(mrai=30.0),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    return Experiment(clique(4), sdn_members={3, 4}, config=config).start()


class TestBgpdConf:
    def test_contains_router_stanza(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        conf = render_bgpd_conf(a)
        assert "router bgp 1" in conf
        assert "hostname as1" in conf

    def test_lists_networks(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        a.originate(Prefix.parse("192.168.0.0/24"))
        conf = render_bgpd_conf(a)
        assert " network 192.168.0.0/24" in conf

    def test_lists_neighbors_with_remote_as(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        conf = render_bgpd_conf(a)
        assert "remote-as 2" in conf

    def test_mrai_rendered(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        conf = render_bgpd_conf(a)
        assert "advertisement-interval 1" in conf

    def test_route_maps_attached(self, net):
        (a, b) = make_bgp_mesh(net, 2)
        conf = render_bgpd_conf(a)
        assert "route-map as2-in in" in conf
        assert "route-map as2-out out" in conf


class TestRouteMapRendering:
    def test_gao_rexford_renders_permit_and_deny(self):
        policy = gao_rexford_policy(Relationship.PEER)
        lines = render_route_map("peerX", policy)
        text = "\n".join(lines)
        assert "route-map peerX-in permit 10" in text
        assert "route-map peerX-out deny" in text

    def test_valley_free_out_names_what_exports_lets_through(self):
        """Toward a peer: own, customer- and FLAT-learned routes, the
        rest denied."""
        lines = render_route_map("p", gao_rexford_policy(Relationship.PEER))
        assert lines[3:7] == [
            "route-map p-out permit 10",
            " description export own/customer/flat routes to peer",
            "route-map p-out deny 20",
            " description implicit valley deny",
        ]

    def test_valley_free_session_toward_a_flat_peer(self):
        lines = render_route_map("f", gao_rexford_policy(Relationship.FLAT))
        assert lines == [
            "route-map f-in permit 10",
            " description import from flat",
            "!",
            "route-map f-out permit 10",
            " description export own/customer/flat routes to flat",
            "route-map f-out deny 20",
            " description implicit valley deny",
            "!",
        ]

    def test_prepend_is_only_on_permit_stanzas(self):
        policy = dataclasses.replace(
            gao_rexford_policy(Relationship.PROVIDER), prepend=2
        )
        lines = render_route_map("up", policy)
        assert lines[3:7] == [
            "route-map up-out permit 10",
            " description export own/customer/flat routes to provider"
            " +prepend x2",
            "route-map up-out deny 20",
            " description implicit valley deny",
        ]


class TestExabgpConf:
    def test_exabgp_lists_all_peerings(self):
        exp = hybrid_experiment()
        conf = render_exabgp_conf(exp.speaker)
        assert conf.count("neighbor ") == len(exp.speaker.peerings())

    def test_exabgp_uses_member_local_as(self):
        exp = hybrid_experiment()
        conf = render_exabgp_conf(exp.speaker)
        assert "local-as 3;" in conf
        assert "local-as 4;" in conf

    def test_full_experiment_renders_for_every_router(self):
        exp = hybrid_experiment()
        from repro.bgp.router import BGPRouter

        for node in exp.as_nodes():
            if isinstance(node, BGPRouter):
                conf = render_bgpd_conf(node)
                assert f"router bgp {node.asn}" in conf


def render_all(exp):
    """Every legacy router's ``bgpd.conf`` in AS order, the route
    collector's, then the cluster speaker's ``exabgp.conf`` if there is
    one."""
    parts = [
        render_bgpd_conf(node)
        for node in exp.as_nodes()
        if isinstance(node, BGPRouter)
    ]
    if exp.collector is not None:
        parts.append(render_bgpd_conf(exp.collector))
    if exp.speaker is not None:
        parts.append(render_exabgp_conf(exp.speaker))
    return "".join(parts)


def caida_prepend_experiment():
    """Valley-free hierarchy (tier-1s 1-2, transits 3-5, stubs 6-10) in
    which AS3 prepends twice toward its provider AS1."""
    topology = synthetic_caida_topology(tier1=2, transit=3, stubs=5, seed=4)
    exp = Experiment(
        topology, config=paper_config(seed=1, policy_mode="gao_rexford")
    ).build()
    exp.set_export_prepend(3, toward=1, count=2)
    exp.start()
    exp.announce(7)
    return exp


class TestGoldens:
    """The rendered files are pinned byte for byte: how a policy is
    stored may change, what an operator reads may not."""

    def test_hybrid_flat_clique(self):
        exp = hybrid_experiment()
        exp.announce(1)
        golden = (GOLDEN / "clique4_sdn34_flat.conf").read_text()
        assert render_all(exp) == golden

    def test_valley_free_hierarchy_with_a_prepend(self):
        golden = (GOLDEN / "caida10_gao_rexford_prepend.conf").read_text()
        assert render_all(caida_prepend_experiment()) == golden
