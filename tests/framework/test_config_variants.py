"""Tests for ExperimentConfig variants and validation."""

import pytest

from repro.bgp.session import BGPTimers
from repro.framework.experiment import (
    EVENT_POOL,
    Experiment,
    ExperimentConfig,
    ExperimentError,
)
from repro.net.addr import Prefix
from repro.topology.builders import clique, line


class TestLatencyOverride:
    def test_phys_latency_overrides_topology(self):
        config = ExperimentConfig(
            seed=1, timers=BGPTimers(mrai=0.5), phys_latency=0.2,
        )
        exp = Experiment(line(3), config=config).start()
        rtt = exp.ping(1, 3)
        # 2 hops * 0.2s each way = 0.8s
        assert rtt == pytest.approx(0.8, abs=0.05)

    def test_topology_latency_used_by_default(self):
        topo = line(3)
        # builders default to 10ms per link
        config = ExperimentConfig(seed=1, timers=BGPTimers(mrai=0.5))
        exp = Experiment(topo, config=config).start()
        rtt = exp.ping(1, 3)
        assert rtt == pytest.approx(0.04, abs=0.01)

    def test_framework_links_carry_the_constant_latencies(self):
        # clique(4) with AS 3-4 in the cluster builds every kind of
        # framework-added link; their latencies are constants that the
        # paper measurements were taken with
        config = ExperimentConfig(seed=1, timers=BGPTimers(mrai=0.5))
        exp = Experiment(clique(4), sdn_members={3, 4}, config=config).build()
        exp.add_host(1)
        by_kind = {}
        for link in exp.net.links:
            by_kind.setdefault(link.kind, set()).add(link.latency)
        assert by_kind["control"] == {0.001}
        assert by_kind["relay"] == {0.001}
        assert by_kind["collector"] == {0.001}
        assert by_kind["host"] == {0.0005}


class TestPolicyModeValidation:
    def test_unknown_policy_mode_rejected_at_build(self):
        config = ExperimentConfig(seed=1, policy_mode="anarchy")
        with pytest.raises(ExperimentError, match="policy mode"):
            Experiment(clique(3), config=config).build()


class TestDerivedTimers:
    def test_collector_timers_strip_mrai_only(self):
        config = ExperimentConfig(
            timers=BGPTimers(mrai=30.0, withdrawal_rate_limited=True)
        )
        collector = config.collector_timers()
        assert collector.mrai == 0.0
        assert collector.withdrawal_rate_limited is True

    def test_speaker_timers_strip_mrai(self):
        config = ExperimentConfig(timers=BGPTimers(mrai=30.0))
        assert config.speaker_timers().mrai == 0.0

    def test_session_timers_are_copies(self):
        config = ExperimentConfig(timers=BGPTimers(mrai=30.0))
        timers = config.session_timers()
        timers.mrai = 1.0
        assert config.timers.mrai == 30.0


class TestHorizon:
    def test_wait_converged_horizon_enforced(self):
        from repro.eventsim import SimulationError

        config = ExperimentConfig(
            seed=1, timers=BGPTimers(mrai=30.0), horizon=0.001,
        )
        exp = Experiment(clique(4), config=config)
        exp.build()
        exp.node(1).start()
        with pytest.raises(SimulationError):
            exp.wait_converged()

    def test_explicit_horizon_overrides_config(self):
        config = ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0))
        exp = Experiment(clique(3), config=config).start()
        exp.announce(1)
        assert exp.wait_converged(horizon=1e6) > 0


class TestEventPrefixPool:
    def test_event_prefixes_disjoint_from_as_prefixes(self):
        config = ExperimentConfig(seed=1, timers=BGPTimers(mrai=0.5))
        exp = Experiment(clique(3), config=config).start()
        event_prefix = exp.new_event_prefix()
        for asn in exp.topology.asns:
            assert not event_prefix.overlaps(exp.as_prefix(asn))

    def test_pool_exhaustion_raises(self):
        config = ExperimentConfig(seed=1, timers=BGPTimers(mrai=0.5))
        exp = Experiment(clique(3), config=config).build()
        exp._event_prefix_index = 10**6
        with pytest.raises(ExperimentError):
            exp.new_event_prefix()

    def test_pool_is_the_256_slash_24s_in_order(self, monkeypatch):
        pool = list(EVENT_POOL.subnets(24))

        def enumerated(self, new_length):
            raise AssertionError("the pool was enumerated to take one prefix")

        # each call sits inside a timed measure_event: index, don't list
        monkeypatch.setattr(Prefix, "subnets", enumerated)
        exp = Experiment(clique(3)).build()
        prefixes = [exp.new_event_prefix() for _ in range(256)]
        assert str(prefixes[0]) == "192.168.0.0/24"
        assert str(prefixes[254]) == "192.168.254.0/24"
        assert str(prefixes[255]) == "192.168.255.0/24"
        assert prefixes == pool
        with pytest.raises(ExperimentError, match="exhausted"):
            exp.new_event_prefix()
