"""SDN cluster member switch.

Each AS that joins the cluster is emulated by one OpenFlow-style switch
(same one-device-per-AS abstraction as the legacy side).  The switch:

- forwards data-plane packets by flow-table lookup (programmed by the
  IDR controller via FlowMod over the control channel);
- relays BGP control traffic between its physical peering links and the
  cluster BGP speaker's per-peering relay links (paper §3: "for every
  BGP peering there is a link from the cluster BGP speaker to the border
  SDN switch");
- reports local link state changes to the controller (PortStatus) and,
  for peering links, to the speaker (PeeringStatus).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..bgp.messages import BGPMessage
from ..eventsim import Simulator
from ..net.addr import IPv4Address
from ..net.dataplane import FibEntry
from ..net.link import Link
from ..net.messages import Message, Packet
from ..net.node import Node
from .flowtable import ActionType, FlowAction, FlowRule, FlowTable
from .messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowRemove,
    PacketIn,
    PeeringStatus,
    PortStatus,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["SDNSwitch"]


class SDNSwitch(Node):
    """A cluster member AS, emulated as one OpenFlow-style switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        asn: int,
        packet_in_enabled: bool = False,
    ) -> None:
        super().__init__(sim, name)
        if asn <= 0:
            raise ValueError(f"ASN must be positive: {asn!r}")
        self.asn = asn
        self.flow_table = FlowTable()
        self.packet_in_enabled = packet_in_enabled
        self.control_link: Optional[Link] = None
        #: phys peering link id -> relay link to the speaker, and back.
        self._relay_by_phys: Dict[int, Link] = {}
        self._phys_by_relay: Dict[int, Link] = {}
        self.flow_mods_applied = 0
        self.packet_ins_sent = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_control_link(self, link: Link) -> None:
        """Attach the out-of-band channel to the IDR controller."""
        link.other(self)  # raises ValueError if we're not an endpoint
        self.control_link = link

    def add_border_relay(self, phys_link: Link, relay_link: Link) -> None:
        """Pair a physical peering link with its speaker relay link."""
        for link in (phys_link, relay_link):
            link.other(self)  # raises ValueError if we're not an endpoint
        self._relay_by_phys[phys_link.link_id] = relay_link
        self._phys_by_relay[relay_link.link_id] = phys_link

    def relay_for(self, phys_link: Link) -> Optional[Link]:
        """The speaker relay link paired with a peering link."""
        return self._relay_by_phys.get(phys_link.link_id)

    def peering_links(self) -> list:
        """Physical links that carry an external BGP peering."""
        out = []
        for link in self.links:
            if link.link_id in self._relay_by_phys:
                out.append(link)
        return out

    # ------------------------------------------------------------------
    # control / relay plane
    # ------------------------------------------------------------------
    def handle_message(self, link: Link, message: Message) -> None:
        """Control-plane dispatch for one delivered message."""
        if isinstance(message, BGPMessage):
            self._relay_bgp(link, message)
            return
        if link is self.control_link:
            self._handle_control(message)

    def _relay_bgp(self, link: Link, message: BGPMessage) -> None:
        """Shuttle BGP bytes between peering link and speaker relay link."""
        relay = self._relay_by_phys.get(link.link_id)
        if relay is not None:
            if relay.up:
                relay.transmit(self, message)
            return
        phys = self._phys_by_relay.get(link.link_id)
        if phys is not None:
            if phys.up:
                phys.transmit(self, message)
            return
        self.bus.record(
            "switch.bgp.unrelayable", self.name, link=link.name,
            message=message.describe(),
        )

    def _handle_control(self, message: Message) -> None:
        if isinstance(message, FlowMod):
            self._apply_flow_mod(message)
        elif isinstance(message, FlowRemove):
            self._apply_flow_remove(message)
        elif isinstance(message, BarrierRequest):
            if self.control_link is not None and self.control_link.up:
                self.control_link.transmit(
                    self, BarrierReply(xid=message.xid, switch=self.name)
                )

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        if mod.action_type == "output":
            link = self._link_by_name(mod.out_link_name)
            if link is None:
                self.bus.record(
                    "switch.flowmod.bad_port", self.name,
                    match=str(mod.match), port=mod.out_link_name,
                )
                return
            action = FlowAction.output(link)
        elif mod.action_type == "local":
            action = FlowAction.local()
        else:
            action = FlowAction.drop()
        self.flow_table.install(
            FlowRule(
                match=mod.match, action=action,
                priority=mod.priority, cookie=mod.cookie,
            )
        )
        self.flow_mods_applied += 1
        self.bus.record_lazy(
            "fib.change", self.name,
            lambda: {
                "prefix": str(mod.match),
                "via": mod.out_link_name or mod.action_type,
            },
        )

    def _apply_flow_remove(self, msg: FlowRemove) -> None:
        if msg.cookie is not None:
            removed = self.flow_table.remove_by_cookie(msg.cookie)
        elif msg.match is not None:
            removed = self.flow_table.remove(msg.match, msg.priority)
        else:
            removed = len(self.flow_table)
            self.flow_table.clear()
        if removed:
            self.bus.record_lazy(
                "fib.change", self.name,
                lambda: {
                    "prefix": str(msg.match) if msg.match else "*",
                    "via": None, "removed": removed,
                },
            )

    def _link_by_name(self, name: Optional[str]) -> Optional[Link]:
        if name is None:
            return None
        for link in self.links:
            if link.name == name:
                return link
        return None

    # ------------------------------------------------------------------
    # link state reporting
    # ------------------------------------------------------------------
    def link_state_changed(self, link: Link) -> None:
        """React to an attached link flipping up/down."""
        if self.control_link is not None and self.control_link.up:
            self.control_link.transmit(
                self,
                PortStatus(
                    switch=self.name,
                    link_name=link.name,
                    peer=link.other(self).name,
                    up=link.up,
                    kind=link.kind,
                ),
            )
        relay = self._relay_by_phys.get(link.link_id)
        if relay is not None and relay.up:
            relay.transmit(
                self,
                PeeringStatus(
                    switch=self.name, peer=link.other(self).name, up=link.up
                ),
            )

    # ------------------------------------------------------------------
    # data plane: flow-table forwarding
    # ------------------------------------------------------------------
    def lookup_route(self, dst: IPv4Address):
        """Forwarding lookup (FIB or flow table)."""
        rule = self.flow_table.lookup(dst)
        if rule is None:
            return None
        if rule.action.type is ActionType.OUTPUT:
            return FibEntry(
                rule.match, rule.action.link,
                via=rule.action.link.other(self).name, source="flow",
            )
        if rule.action.type is ActionType.LOCAL:
            return FibEntry(rule.match, None, via="local", source="flow")
        return None  # DROP

    def forward_packet(self, packet: Packet, entry=None) -> bool:
        """Forward one packet; False when dropped."""
        forwarded = super().forward_packet(packet, entry)
        if (
            not forwarded
            and self.packet_in_enabled
            and self.control_link is not None
            and self.control_link.up
        ):
            self.packet_ins_sent += 1
            self.control_link.transmit(
                self,
                PacketIn(
                    switch=self.name, src=str(packet.src),
                    dst=str(packet.dst), proto=packet.proto,
                ),
            )
        return forwarded
