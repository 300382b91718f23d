"""Unit tests for the SDN switch: FlowMods, relaying, PortStatus."""

import pytest

from repro.bgp.messages import BGPKeepalive
from repro.net.addr import IPv4Address, Prefix
from repro.net.messages import Packet
from repro.net.node import Node
from repro.sdn.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemove,
    PeeringStatus,
    PortStatus,
)
from repro.sdn.switch import SDNSwitch


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []

    def handle_message(self, link, message):
        self.inbox.append(message)


def build(net):
    """switch with controller stub, one peer, one relay target."""
    switch = net.add_node(SDNSwitch(net.sim, "sw", asn=10))
    controller = net.add_node(Sink(net.sim, "ctl"))
    external = net.add_node(Sink(net.sim, "ext"))
    speaker = net.add_node(Sink(net.sim, "spk"))
    ctl_link = net.add_link(switch, controller, kind="control")
    phys = net.add_link(switch, external, kind="phys")
    relay = net.add_link(switch, speaker, kind="relay")
    switch.set_control_link(ctl_link)
    switch.add_border_relay(phys, relay)
    return switch, controller, external, speaker, ctl_link, phys, relay


class TestFlowMods:
    def test_flow_mod_installs_rule(self, net):
        switch, controller, external, *_ , phys, relay = build(net)
        mod = FlowMod(
            match=Prefix.parse("10.0.0.0/24"),
            action_type="output",
            out_link_name=phys.name,
            priority=24,
        )
        switch._handle_control(mod)
        assert len(switch.flow_table) == 1
        assert switch.flow_mods_applied == 1

    def test_flow_mod_unknown_port_is_logged_not_fatal(self, net):
        switch, *_ = build(net)
        mod = FlowMod(
            match=Prefix.parse("10.0.0.0/24"),
            action_type="output",
            out_link_name="ghost",
        )
        switch._handle_control(mod)
        assert len(switch.flow_table) == 0
        assert net.bus.count("switch.flowmod.bad_port") == 1

    def test_flow_remove(self, net):
        switch, *_, phys, relay = build(net)
        switch._handle_control(
            FlowMod(match=Prefix.parse("10.0.0.0/24"),
                    action_type="output", out_link_name=phys.name, priority=24)
        )
        switch._handle_control(
            FlowRemove(match=Prefix.parse("10.0.0.0/24"), priority=24)
        )
        assert len(switch.flow_table) == 0

    def test_local_action(self, net):
        switch, *_ = build(net)
        switch._handle_control(
            FlowMod(match=Prefix.parse("10.0.0.0/24"), action_type="local")
        )
        entry = switch.lookup_route(IPv4Address.parse("10.0.0.1"))
        assert entry is not None and entry.link is None

    def test_barrier_round_trip(self, net):
        switch, controller, *_ = build(net)
        ctl = switch.control_link
        ctl.transmit(controller, BarrierRequest(xid=7))
        net.sim.run()
        replies = [m for m in controller.inbox if isinstance(m, BarrierReply)]
        assert replies and replies[0].xid == 7


class TestForwarding:
    def test_flow_table_forwarding(self, net):
        switch, controller, external, *_ , phys, relay = build(net)
        switch._handle_control(
            FlowMod(match=Prefix.parse("10.0.0.0/24"),
                    action_type="output", out_link_name=phys.name, priority=24)
        )
        got = []
        external.handle_local_packet = lambda link, p: got.append(p)
        external.address = IPv4Address.parse("10.0.0.1")
        packet = Packet(
            src=IPv4Address.parse("10.9.0.1"),
            dst=IPv4Address.parse("10.0.0.1"),
            proto="raw",
        )
        switch.forward_packet(packet)
        net.sim.run()
        assert len(got) == 1

    def test_miss_drops_without_packet_in(self, net):
        switch, controller, *_ = build(net)
        packet = Packet(
            src=IPv4Address.parse("10.9.0.1"),
            dst=IPv4Address.parse("10.0.0.1"),
            proto="raw",
        )
        assert switch.forward_packet(packet) is False
        assert switch.packet_ins_sent == 0

    def test_miss_sends_packet_in_when_enabled(self, net):
        switch, controller, *_ = build(net)
        switch.packet_in_enabled = True
        packet = Packet(
            src=IPv4Address.parse("10.9.0.1"),
            dst=IPv4Address.parse("10.0.0.1"),
            proto="raw",
        )
        switch.forward_packet(packet)
        net.sim.run()
        assert switch.packet_ins_sent == 1


class TestBgpRelay:
    def test_phys_to_relay(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        phys.transmit(external, BGPKeepalive(sender_asn=99))
        net.sim.run()
        assert any(isinstance(m, BGPKeepalive) for m in speaker.inbox)

    def test_relay_to_phys(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        relay.transmit(speaker, BGPKeepalive(sender_asn=10))
        net.sim.run()
        assert any(isinstance(m, BGPKeepalive) for m in external.inbox)

    def test_unmapped_bgp_is_logged(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        other = net.add_node(Sink(net.sim, "other"))
        stray = net.add_link(switch, other, kind="phys")
        stray.transmit(other, BGPKeepalive(sender_asn=1))
        net.sim.run()
        assert net.bus.count("switch.bgp.unrelayable") == 1

    def test_relay_drops_when_phys_down(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        phys.up = False  # silent: no notifications
        relay.transmit(speaker, BGPKeepalive(sender_asn=10))
        net.sim.run()
        assert not external.inbox


class TestStatusReporting:
    def test_port_status_to_controller(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        phys.fail()
        net.sim.run()
        statuses = [m for m in controller.inbox if isinstance(m, PortStatus)]
        assert statuses and statuses[0].up is False
        assert statuses[0].peer == "ext"

    def test_peering_status_to_speaker(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        phys.fail()
        net.sim.run()
        statuses = [m for m in speaker.inbox if isinstance(m, PeeringStatus)]
        assert statuses and statuses[0].up is False

    def test_restore_reports_up(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        phys.fail()
        phys.restore()
        net.sim.run()
        ups = [
            m for m in controller.inbox
            if isinstance(m, PortStatus) and m.up
        ]
        assert ups


class TestValidation:
    def test_bad_asn(self, net):
        with pytest.raises(ValueError):
            SDNSwitch(net.sim, "x", asn=-1)

    def test_control_link_must_attach(self, net):
        switch, controller, external, *_ = build(net)
        elsewhere = net.add_link(controller, external)
        with pytest.raises(ValueError, match="not an endpoint"):
            switch.set_control_link(elsewhere)

    def test_border_relay_must_attach(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        elsewhere = net.add_link(controller, speaker)
        with pytest.raises(ValueError, match="not an endpoint"):
            switch.add_border_relay(phys, elsewhere)

    def test_peering_links_listing(self, net):
        switch, controller, external, speaker, ctl, phys, relay = build(net)
        assert switch.peering_links() == [phys]
