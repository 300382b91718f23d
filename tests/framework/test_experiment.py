"""Unit tests for the Experiment orchestration API."""

import pytest

from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.config.allocator import PrefixAllocator
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentError,
)
from repro.sdn.switch import SDNSwitch
from repro.topology.builders import clique, line
from repro.topology.caida import caida_hierarchy


def config(seed=1, mrai=1.0, **kwargs):
    return ExperimentConfig(
        seed=seed,
        timers=BGPTimers(mrai=mrai),
        controller=ControllerConfig(recompute_delay=0.2),
        **kwargs,
    )


class TestBuild:
    def test_pure_bgp_build(self):
        exp = Experiment(clique(4), config=config()).build()
        assert exp.controller is None and exp.speaker is None
        assert all(isinstance(n, BGPRouter) for n in exp.as_nodes())

    def test_hybrid_build_devices(self):
        exp = Experiment(clique(4), sdn_members={3, 4}, config=config()).build()
        assert isinstance(exp.node(3), SDNSwitch)
        assert isinstance(exp.node(1), BGPRouter)
        assert exp.controller is not None and exp.speaker is not None

    def test_unknown_sdn_member_rejected(self):
        with pytest.raises(ExperimentError):
            Experiment(clique(4), sdn_members={9}, config=config())

    def test_double_build_rejected(self):
        exp = Experiment(clique(3), config=config()).build()
        with pytest.raises(ExperimentError):
            exp.build()

    def test_collector_peers_with_legacy_only(self):
        exp = Experiment(clique(4), sdn_members={4}, config=config()).build()
        collector_links = [l for l in exp.net.links if l.kind == "collector"]
        names = {l.other(exp.collector).name for l in collector_links}
        assert names == {"as1", "as2", "as3"}

    def test_no_collector_option(self):
        cfg = config(with_collector=False)
        exp = Experiment(clique(3), config=cfg).build()
        assert exp.collector is None

    def test_link_addressing_assigned(self):
        exp = Experiment(clique(3), config=config()).build()
        for link in exp.net.links:
            if link.kind == "phys":
                assert link.prefix is not None
                assert len(link.addresses) == 2

    @pytest.mark.parametrize(
        "topology", [clique(16), caida_hierarchy(300)],
        ids=["clique16", "caida300"],
    )
    def test_link_addresses_derive_the_allocators_plan(self, topology):
        """A link keeps only its transfer net's index; what it derives
        is what the allocator hands out, called once per phys link in
        link order.  Other links stay unaddressed."""
        exp = Experiment(topology, sdn_members={3, 4}, config=config()).build()
        plan = PrefixAllocator()
        phys = 0
        for link in exp.net.links:
            if link.kind != "phys":
                assert link.prefix is None and link.addresses == {}
                assert link.address_of(link.a) is None
                continue
            phys += 1
            prefix, addr_a, addr_b = plan.link_net()
            assert link.prefix == prefix
            assert link.address_of(link.a) == addr_a
            assert link.address_of(link.b) == addr_b
            assert link.addresses == {link.a.name: addr_a, link.b.name: addr_b}
        assert phys == len(topology.links)

    def test_intra_cluster_links_registered(self):
        exp = Experiment(clique(4), sdn_members={3, 4}, config=config()).build()
        assert exp.controller.switch_graph.intra_link_name("as3", "as4")

    def test_commands_require_build(self):
        exp = Experiment(clique(3), config=config())
        with pytest.raises(ExperimentError):
            exp.announce(1)


class TestLifecycle:
    def test_start_converges_and_reaches(self):
        exp = Experiment(clique(4), config=config()).start()
        assert exp.all_reachable()

    def test_double_start_rejected(self):
        exp = Experiment(clique(3), config=config()).start()
        with pytest.raises(ExperimentError):
            exp.start()

    def test_originate_all_gives_every_as_a_prefix(self):
        exp = Experiment(clique(3), config=config()).start()
        for asn in (1, 2, 3):
            node = exp.node(asn)
            assert exp.as_prefix(asn) in node.local_prefixes

    def test_originate_all_off(self):
        cfg = config(originate_all=False)
        exp = Experiment(clique(3), config=cfg).start()
        assert len(exp.node(1).loc_rib) == 0


class TestCommands:
    def test_announce_returns_fresh_event_prefix(self):
        exp = Experiment(clique(3), config=config()).start()
        p1 = exp.announce(1)
        p2 = exp.announce(2)
        assert p1 != p2
        assert str(p1).startswith("192.168.")

    def test_withdraw_roundtrip(self):
        exp = Experiment(clique(3), config=config()).start()
        prefix = exp.announce(1)
        exp.wait_converged()
        assert exp.node(2).loc_rib.get(prefix) is not None
        exp.withdraw(1, prefix)
        exp.wait_converged()
        assert exp.node(2).loc_rib.get(prefix) is None

    def test_fail_and_restore_link(self):
        exp = Experiment(line(3), config=config()).start()
        exp.fail_link(1, 2)
        exp.wait_converged()
        assert not exp.reachable(1, 3).reached
        exp.restore_link(1, 2)
        exp.wait_converged()
        assert exp.reachable(1, 3).reached

    def test_fail_unknown_link_raises(self):
        exp = Experiment(line(3), config=config()).start()
        with pytest.raises(ExperimentError):
            exp.fail_link(1, 3)

    def test_fail_node_kills_all_its_links(self):
        exp = Experiment(clique(4), config=config()).start()
        exp.fail_node(1)
        exp.wait_converged()
        assert not exp.reachable(2, 1).reached
        assert exp.reachable(2, 3).reached

    def test_ping_measures_rtt(self):
        exp = Experiment(line(3), config=config()).start()
        rtt = exp.ping(1, 3)
        assert rtt is not None
        assert rtt == pytest.approx(0.04, abs=0.01)

    def test_ping_fails_when_partitioned(self):
        exp = Experiment(line(3), config=config()).start()
        exp.fail_link(2, 3)
        exp.wait_converged()
        assert exp.ping(1, 3) is None


class TestHosts:
    def test_host_addressing_inside_as_prefix(self):
        exp = Experiment(clique(3), config=config()).start()
        host = exp.add_host(2)
        assert host.address in exp.as_prefix(2)

    def test_host_reachable_from_other_as(self):
        exp = Experiment(clique(3), config=config()).start()
        host = exp.add_host(2)
        walk = exp.net.trace_path(exp.node(1), host.address)
        assert walk.reached and walk.hops[-1] == host.name

    def test_host_on_sdn_member(self):
        exp = Experiment(
            clique(4), sdn_members={3, 4}, config=config()
        ).start()
        host = exp.add_host(4)
        exp.wait_converged()
        walk = exp.net.trace_path(exp.node(1), host.address)
        assert walk.reached and walk.hops[-1] == host.name

    def test_multiple_hosts_per_as(self):
        exp = Experiment(clique(3), config=config()).start()
        h1 = exp.add_host(1)
        h2 = exp.add_host(1)
        assert h1.address != h2.address


class TestPrepend:
    def test_set_export_prepend_lengthens_path(self):
        exp = Experiment(line(3), config=config()).build()
        exp.set_export_prepend(1, toward=2, count=3)
        exp.start()
        route = exp.node(3).loc_rib.get(exp.as_prefix(1))
        assert list(route.attrs.as_path) == [2, 1, 1, 1, 1]

    def test_prepend_on_sdn_member_rejected(self):
        exp = Experiment(clique(3), sdn_members={2}, config=config()).build()
        with pytest.raises(ExperimentError):
            exp.set_export_prepend(2, toward=1, count=3)
