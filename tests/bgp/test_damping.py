"""Unit + integration tests for route-flap damping (RFC 2439)."""

import pytest

from repro.bgp.damping import DampingConfig, RouteDamper
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.net.addr import Prefix

PFX = Prefix.parse("192.168.0.0/24")
KEY = (1, PFX)

#: fast config for tests: one withdrawal flap suppresses nothing, two do.
FAST = DampingConfig(
    half_life=10.0,
    reuse_threshold=800.0,
    suppress_threshold=1500.0,
    withdrawal_penalty=1000.0,
    attribute_change_penalty=500.0,
    max_suppress_time=60.0,
)


class TestDampingConfig:
    def test_default_parameters_are_router_like(self):
        config = DampingConfig()
        assert config.half_life == 900.0
        assert config.suppress_threshold > config.reuse_threshold

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            DampingConfig(half_life=0)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            DampingConfig(reuse_threshold=3000, suppress_threshold=2000)

    def test_max_penalty_consistent(self):
        config = DampingConfig()
        # decaying from max_penalty for max_suppress_time lands on reuse
        import math

        decayed = config.max_penalty * math.pow(
            2.0, -config.max_suppress_time / config.half_life
        )
        assert decayed == pytest.approx(config.reuse_threshold)


class TestRouteDamper:
    def test_single_flap_below_threshold(self, sim):
        damper = RouteDamper(sim, FAST, lambda key: None)
        assert damper.record_flap(KEY) is False
        assert not damper.is_suppressed(KEY)

    def test_repeated_flaps_suppress(self, sim):
        damper = RouteDamper(sim, FAST, lambda key: None)
        damper.record_flap(KEY)
        assert damper.record_flap(KEY) is True
        assert damper.is_suppressed(KEY)
        assert damper.suppressions == 1

    def test_penalty_decays_exponentially(self, sim):
        damper = RouteDamper(sim, FAST, lambda key: None)
        damper.record_flap(KEY)  # penalty 1000
        sim.schedule(10.0, lambda: None)  # one half-life
        sim.run()
        assert damper.penalty_of(KEY) == pytest.approx(500.0, rel=1e-6)

    def test_reuse_callback_fires_after_decay(self, sim):
        released = []
        damper = RouteDamper(sim, FAST, released.append)
        damper.record_flap(KEY)
        damper.record_flap(KEY)  # ~2000 -> suppressed
        sim.run()
        assert released == [KEY]
        assert not damper.is_suppressed(KEY)
        assert damper.reuses == 1
        # released roughly when penalty crossed reuse (2000 -> 800):
        # t = 10 * log2(2000/800) ~ 13.2s
        assert 12.0 < sim.now < 16.0

    def test_flap_while_suppressed_extends(self, sim):
        released = []
        damper = RouteDamper(sim, FAST, released.append)
        damper.record_flap(KEY)
        damper.record_flap(KEY)
        sim.run(until=5.0)
        damper.record_flap(KEY)  # re-penalize mid-suppression
        sim.run()
        assert released == [KEY]
        assert sim.now > 15.0

    def test_penalty_capped_at_max(self, sim):
        damper = RouteDamper(sim, FAST, lambda key: None)
        for _ in range(50):
            damper.record_flap(KEY)
        assert damper.penalty_of(KEY) <= FAST.max_penalty + 1e-9

    def test_attribute_change_half_penalty(self, sim):
        damper = RouteDamper(sim, FAST, lambda key: None)
        damper.record_flap(KEY, kind="attribute_change")
        assert damper.penalty_of(KEY) == pytest.approx(500.0)

    def test_clear_peer(self, sim):
        damper = RouteDamper(sim, FAST, lambda key: None)
        damper.record_flap(KEY)
        damper.record_flap((2, PFX))
        damper.clear_peer(1)
        assert damper.penalty_of(KEY) == 0.0
        assert damper.penalty_of((2, PFX)) > 0.0


def make_damped_pair(net):
    timers = BGPTimers(mrai=0.5)
    a = net.add_node(
        BGPRouter(net.sim, "a", asn=1, timers=timers)
    )
    b = net.add_node(
        BGPRouter(net.sim, "b", asn=2, timers=timers, damping=FAST)
    )
    link = net.add_link(a, b, latency=0.01)
    a.add_peer(link)
    b.add_peer(link)
    a.start()
    b.start()
    net.sim.run_until_settled()
    return a, b


class TestRouterIntegration:
    def flap(self, net, a, times):
        for _ in range(times):
            a.originate(PFX)
            net.sim.run(until=net.sim.now + 1.0)
            a.withdraw(PFX)
            net.sim.run(until=net.sim.now + 1.0)

    def test_stable_route_unaffected(self, net):
        a, b = make_damped_pair(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None

    def test_flapping_route_gets_suppressed(self, net):
        a, b = make_damped_pair(net)
        self.flap(net, a, times=2)
        a.originate(PFX)
        net.sim.run(until=net.sim.now + 1.0)
        # the route is present in Adj-RIB-In but suppressed from Loc-RIB
        assert b.loc_rib.get(PFX) is None
        assert net.bus.count("bgp.damping.suppress") >= 1

    def test_suppressed_route_reused_after_decay(self, net):
        a, b = make_damped_pair(net)
        self.flap(net, a, times=2)
        a.originate(PFX)
        net.sim.run_until_settled()  # waits out the reuse timer
        assert b.loc_rib.get(PFX) is not None
        assert net.bus.count("bgp.damping.reuse") >= 1

    def test_session_reset_clears_damping(self, net):
        a, b = make_damped_pair(net)
        self.flap(net, a, times=2)
        link = net.link_between("a", "b")
        link.fail()
        net.sim.run_until_settled()
        link.restore()
        a.originate(PFX)
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None
