"""Scale and stress integration tests.

Larger topologies, event storms, and repeated failure/recovery cycles —
guarding the invariants that matter at scale: convergence always
terminates, forwarding stays loop-free, RIBs stay mutually consistent,
and no stale state leaks across events.
"""

import pytest

from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.eventsim import ROUTE_AFFECTING
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.topology.builders import barabasi_albert, clique, ring
from repro.topology.caida import synthetic_caida_topology


def build(topo, sdn=(), seed=1, mrai=1.0, policy="flat"):
    config = ExperimentConfig(
        seed=seed,
        policy_mode=policy,
        timers=BGPTimers(mrai=mrai),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    return Experiment(topo, sdn_members=set(sdn), config=config).start()


class TestLargerTopologies:
    def test_40_as_caida_with_policies_converges(self):
        topo = synthetic_caida_topology(tier1=4, transit=10, stubs=26, seed=9)
        exp = build(topo, policy="gao_rexford", mrai=2.0)
        assert exp.all_reachable()

    def test_30_as_ba_hybrid_converges(self):
        topo = barabasi_albert(30, 2, seed=4)
        sdn = set(topo.asns[-10:])
        exp = build(topo, sdn=sdn, mrai=2.0)
        assert exp.all_reachable()

    def test_large_ring_diameter_paths(self):
        exp = build(ring(20), mrai=1.0)
        walk = exp.reachable(1, 11)
        assert walk.reached
        assert len(walk.hops) == 11  # half the ring: shortest path


class TestRibConsistency:
    def test_fib_matches_loc_rib_everywhere(self):
        exp = build(clique(8), sdn=(7, 8), mrai=1.0)
        exp.announce(1)
        exp.fail_link(2, 3)
        exp.wait_converged()
        for node in exp.as_nodes():
            if not isinstance(node, BGPRouter):
                continue
            for route in node.loc_rib:
                entry = node.fib.get(route.prefix)
                assert entry is not None, (node.name, route.prefix)
                if route.is_local:
                    assert entry.link is None
                else:
                    assert entry.via == route.peer_name

    def test_no_fib_entry_without_loc_rib_route(self):
        exp = build(clique(6), mrai=1.0)
        prefix = exp.announce(1)
        exp.wait_converged()
        exp.withdraw(1, prefix)
        exp.wait_converged()
        for node in exp.as_nodes():
            if isinstance(node, BGPRouter):
                for entry in node.fib:
                    if entry.source.startswith("bgp"):
                        assert node.loc_rib.get(entry.prefix) is not None

    def test_adj_rib_out_reflects_actual_peer_state(self):
        """What X believes it told Y == what Y actually holds from X."""
        exp = build(clique(5), mrai=1.0)
        exp.announce(1)
        exp.fail_link(1, 2)
        exp.wait_converged()
        nodes = {n.name: n for n in exp.as_nodes()}
        for node in exp.as_nodes():
            for session in node.sessions.values():
                if not session.established:
                    continue
                peer = nodes.get(session.peer_name)
                if peer is None or not isinstance(peer, BGPRouter):
                    continue
                peer_session = peer.session_on(session.link)
                if peer_session is None:
                    continue
                sent = {
                    str(p): session.rib_out.get(p)
                    for p in session.rib_out.prefixes()
                }
                held = {
                    str(r.prefix): r
                    for r in peer_session.rib_in
                }
                assert set(sent) == set(held), (node.name, peer.name)


class TestEventStorms:
    def test_repeated_flap_cycles_stay_clean(self):
        exp = build(clique(6), sdn=(5, 6), mrai=1.0)
        prefix = exp.announce(1)
        exp.wait_converged()
        for _ in range(5):
            exp.withdraw(1, prefix)
            exp.wait_converged()
            exp.announce(1, prefix)
            exp.wait_converged()
        assert exp.all_reachable()
        for asn in (2, 5):
            walk = exp.net.trace_path(exp.node(asn), prefix.host(0))
            assert walk.reached

    def test_rolling_link_failures_and_recovery(self):
        exp = build(clique(6), sdn=(5, 6), mrai=1.0)
        pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        for a, b in pairs:
            exp.fail_link(a, b)
            exp.wait_converged()
        assert exp.all_reachable()  # clique has plenty of redundancy
        for a, b in pairs:
            exp.restore_link(a, b)
            exp.wait_converged()
        assert exp.all_reachable()
        for src in exp.topology.asns:
            for dst in exp.topology.asns:
                if src != dst:
                    walk = exp.reachable(src, dst)
                    assert walk.hops == [f"as{src}", f"as{dst}"], walk.hops

    def test_simultaneous_events_converge(self):
        exp = build(clique(8), sdn=(7, 8), mrai=2.0)
        prefix = exp.announce(1)
        exp.wait_converged()
        # inject three different events in the same instant
        exp.withdraw(1, prefix)
        exp.fail_link(2, 3)
        exp.announce(4)
        exp.wait_converged()
        assert exp.all_reachable()

    def test_partition_and_heal(self):
        exp = build(ring(8), sdn=(7, 8), mrai=1.0)
        exp.fail_link(1, 2)
        exp.fail_link(5, 6)  # two cuts partition a ring
        exp.wait_converged()
        assert not exp.reachable(1, 5).reached or not exp.reachable(2, 5).reached
        exp.restore_link(1, 2)
        exp.wait_converged()
        assert exp.all_reachable()


class TestQuiescence:
    def test_no_residual_foreground_work_after_convergence(self):
        exp = build(clique(8), sdn=(7, 8), mrai=5.0)
        exp.announce(1)
        exp.wait_converged()
        assert exp.net.sim.pending_foreground() == 0

    def test_trace_quiet_after_settle(self):
        exp = build(clique(6), mrai=2.0)
        exp.announce(1)
        exp.wait_converged()
        cut = exp.now
        exp.net.sim.run(until=cut + 60.0)
        assert exp.net.bus.last_time(ROUTE_AFFECTING) < cut + 1e-9
