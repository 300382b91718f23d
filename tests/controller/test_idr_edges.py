"""Edge-case tests for the IDR controller."""

import pytest

from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.sdn.messages import PacketIn
from repro.topology.builders import clique


def hybrid(seed=1, recompute=0.2, **controller_kwargs):
    config = ExperimentConfig(
        seed=seed,
        timers=BGPTimers(mrai=1.0),
        controller=ControllerConfig(
            recompute_delay=recompute, **controller_kwargs
        ),
    )
    return Experiment(clique(5), sdn_members={4, 5}, config=config).start()


class TestControlChannelFailure:
    def test_flow_mods_on_dead_control_link_are_logged(self):
        exp = hybrid()
        ctl = exp.net.link_between("controller", "as4")
        ctl.fail()
        prefix = exp.announce(1)
        exp.wait_converged()
        assert exp.net.bus.count("controller.control_link_down") >= 1
        # as5's control link still works: it got the rule
        assert exp.node(5).lookup_route(prefix.host(0)) is not None

    def test_switch_recovers_after_control_link_restore(self):
        exp = hybrid()
        ctl = exp.net.link_between("controller", "as4")
        ctl.fail()
        prefix = exp.announce(1)
        exp.wait_converged()
        ctl.restore()
        # trigger a recompute so missed rules are replayed: the diff
        # against the controller's compiled state is stale, so force a
        # fresh event on the prefix.
        exp.withdraw(1, prefix)
        exp.wait_converged()
        exp.announce(1, prefix)
        exp.wait_converged()
        assert exp.node(4).lookup_route(prefix.host(0)) is not None


class TestPacketIn:
    def test_packet_in_counted_by_controller(self):
        exp = hybrid()
        switch = exp.node(4)
        switch.packet_in_enabled = True
        from repro.net.addr import IPv4Address
        from repro.net.messages import Packet

        # destination nobody announced: table miss at the switch
        switch.forward_packet(
            Packet(
                src=IPv4Address.parse("10.0.0.1"),
                dst=IPv4Address.parse("203.0.113.9"),
                proto="raw",
            )
        )
        exp.net.sim.run(until=exp.now + 1.0)
        assert exp.controller.packet_ins >= 1


class TestPeeringPortStatus:
    def test_peering_link_failure_marks_all_prefixes_dirty(self):
        exp = hybrid()
        before = exp.controller.recomputations
        exp.fail_link(1, 4)
        exp.wait_converged()
        assert exp.controller.recomputations > before

    def test_switch_graph_untouched_by_peering_link(self):
        exp = hybrid()
        exp.fail_link(1, 4)  # external peering, not intra-cluster
        exp.wait_converged()
        assert len(exp.controller.switch_graph.sub_clusters()) == 1


class TestDirtyBookkeeping:
    def test_flush_now_forces_immediate_recompute(self):
        exp = hybrid(recompute=5.0)
        before = exp.controller.recomputations
        exp.controller.mark_dirty(exp.controller.known_prefixes())
        exp.controller.flush_now()
        assert exp.controller.recomputations == before + 1

    def test_empty_flush_is_noop(self):
        exp = hybrid()
        before = exp.controller.recomputations
        exp.controller.flush_now()
        assert exp.controller.recomputations == before

    def test_extend_on_burst_config_respected(self):
        exp = hybrid(extend_on_burst=True)
        assert exp.controller._recompute_timer._extend is True


class TestOriginationValidation:
    def test_originate_unknown_member_raises(self):
        exp = hybrid()
        with pytest.raises(KeyError):
            exp.controller.originate("ghost", exp.as_prefix(1))

    def test_double_origination_same_member_idempotent(self):
        exp = hybrid()
        prefix = exp.new_event_prefix()
        exp.controller.originate("as4", prefix)
        exp.controller.originate("as4", prefix)
        exp.wait_converged()
        exp.controller.withdraw("as4", prefix)
        exp.wait_converged()
        assert exp.node(1).loc_rib.get(prefix) is None

    def test_anycast_origination_from_two_members(self):
        """Both members originate: everyone routes to the nearer one."""
        exp = hybrid()
        prefix = exp.new_event_prefix()
        exp.controller.originate("as4", prefix)
        exp.controller.originate("as5", prefix)
        exp.wait_converged()
        for asn in (1, 2, 3):
            walk = exp.net.trace_path(exp.node(asn), prefix.host(0))
            assert walk.reached
            assert walk.hops[-1] in ("as4", "as5")
        # withdrawing one keeps the service up via the other
        exp.controller.withdraw("as4", prefix)
        exp.wait_converged()
        walk = exp.net.trace_path(exp.node(1), prefix.host(0))
        assert walk.reached and walk.hops[-1] == "as5"
