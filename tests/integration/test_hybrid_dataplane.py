"""End-to-end data-plane integration: packets across the hybrid network."""

import pytest

from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.framework.traffic import ProbeStream
from repro.topology.builders import clique, line, ring


def build(topo, sdn=(), seed=1, mrai=1.0, recompute=0.2, records=None):
    """The started experiment; a ``records`` list receives every record
    of the run."""
    config = ExperimentConfig(
        seed=seed,
        timers=BGPTimers(mrai=mrai),
        controller=ControllerConfig(recompute_delay=recompute),
    )
    exp = Experiment(topo, sdn_members=set(sdn), config=config).build()
    if records is not None:
        exp.net.bus.subscribe(records.append)
    return exp.start()


class TestCrossBoundaryPaths:
    def test_legacy_to_sdn_host_ping(self):
        exp = build(clique(6), sdn=(4, 5, 6))
        rtt = exp.ping(1, 5)
        assert rtt is not None and rtt > 0

    def test_sdn_to_legacy_host_ping(self):
        exp = build(clique(6), sdn=(4, 5, 6))
        rtt = exp.ping(5, 1)
        assert rtt is not None

    def test_sdn_to_sdn_ping(self):
        exp = build(clique(6), sdn=(4, 5, 6))
        assert exp.ping(4, 6) is not None

    def test_path_through_cluster_transit(self):
        # line 1 - 2 - 3 - 4 with the middle in the cluster: legacy ends
        # must communicate THROUGH the SDN switches.
        exp = build(line(4), sdn=(2, 3))
        walk = exp.reachable(1, 4)
        assert walk.reached
        assert walk.hops == ["as1", "as2", "as3", "as4"]

    def test_probe_stream_across_boundary(self):
        exp = build(clique(6), sdn=(4, 5, 6))
        src = exp.add_host(1)
        dst = exp.add_host(5)
        exp.wait_converged()
        stream = ProbeStream(src, dst, interval=0.05)
        stream.start(duration=2.0)
        exp.net.sim.run(until=exp.now + 3.0)
        report = stream.report()
        assert report.sent >= 35
        assert report.loss_rate == 0.0


class TestFailureRecovery:
    def test_legacy_link_failure_reroutes_through_cluster(self):
        # ring 1-2-3-4-5-1 with 3,4 in the cluster; failing 1-2 forces
        # 2's traffic to 1 the long way through the cluster.
        exp = build(ring(5), sdn=(3, 4), mrai=1.0)
        exp.fail_link(1, 2)
        exp.wait_converged()
        walk = exp.reachable(2, 1)
        assert walk.reached
        assert "as3" in walk.hops and "as4" in walk.hops

    def test_cluster_egress_failure_recovers(self):
        exp = build(clique(6), sdn=(4, 5, 6))
        prefix = exp.announce(1)
        exp.wait_converged()
        # kill as4's direct egress to the origin
        exp.fail_link(1, 4)
        exp.wait_converged()
        walk = exp.net.trace_path(exp.node(4), prefix.host(0))
        assert walk.reached, walk.reason

    def test_no_transient_loops_after_convergence(self):
        exp = build(clique(6), sdn=(4, 5, 6))
        exp.fail_link(1, 2)
        exp.fail_link(3, 5)
        exp.wait_converged()
        matrix = exp.connectivity_matrix()
        for (src, dst), walk in matrix.items():
            assert walk.reached, (src, dst, walk.reason, walk.hops)
            assert len(walk.hops) == len(set(walk.hops))  # loop-free

    def test_node_outage_isolates_only_that_node(self):
        exp = build(clique(5), sdn=(4, 5))
        exp.fail_node(2)
        exp.wait_converged()
        for other in (1, 3, 4, 5):
            assert not exp.reachable(other, 2).reached
        for src in (1, 3, 4, 5):
            for dst in (1, 3, 4, 5):
                if src != dst:
                    assert exp.reachable(src, dst).reached


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def run():
            records = []
            exp = build(clique(5), sdn=(4, 5), seed=7, records=records)
            prefix = exp.announce(1)
            exp.wait_converged()
            exp.withdraw(1, prefix)
            exp.wait_converged()
            return [(round(r.time, 9), r.category, r.node) for r in records]

        assert run() == run()

    def test_seed_changes_timing(self):
        def run(seed):
            exp = build(clique(5), seed=seed, mrai=5.0)
            prefix = exp.announce(1)
            exp.wait_converged()
            exp.withdraw(1, prefix)
            return exp.wait_converged()

        assert run(1) != run(2)
