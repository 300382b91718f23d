"""Base node class for every emulated device.

BGP routers, SDN switches, the IDR controller, the cluster BGP speaker,
the route collector, and plain hosts all subclass :class:`Node`.  The
base class owns link attachment, message dispatch, the local FIB, and
data-plane forwarding (longest-prefix match + TTL), so subclasses only
implement their control planes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..eventsim import InstrumentationBus, Simulator
from .addr import IPv4Address, Prefix
from .dataplane import Fib, FibEntry
from .link import Link
from .messages import Message, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["Node", "Host"]


class Node:
    """An emulated network device attached to a simulator.

    Subclasses override :meth:`handle_message` for their control plane
    and may override :meth:`handle_local_packet` for packets addressed
    to one of the node's own prefixes.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        #: the simulator's bus, which every record is published on; a
        #: plain attribute because the hot emitters read it per record.
        self.bus: InstrumentationBus = sim.bus
        self.name = name
        self.links: list[Link] = []
        self.fib = Fib()
        #: prefixes this node terminates (delivers locally).
        self.local_prefixes: list[Prefix] = []
        #: primary loopback-style address, set by the config layer.
        self.address: Optional[IPv4Address] = None
        self.packets_forwarded = 0
        self.packets_dropped = 0
        #: seq -> arrival time of echo replies to pings we originated.
        self.echo_replies_received: dict[int, float] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        """Register an attached link."""
        self.links.append(link)

    def neighbors(self) -> Iterable["Node"]:
        """Adjacent ASNs / nodes."""
        for link in self.links:
            yield link.other(self)

    def link_to(self, other: "Node") -> Optional[Link]:
        """The first link connecting this node to ``other``, if any."""
        for link in self.links:
            if link.other(self) is other:
                return link
        return None

    def up_links(self) -> list[Link]:
        """Attached links currently up."""
        return [link for link in self.links if link.up]

    def link_state_changed(self, link: Link) -> None:
        """Hook: called when an attached link changes up/down state."""

    def close(self) -> None:
        """Drop this node's wiring (the end of a trial, see
        :meth:`~repro.net.network.Network.close`): its links and FIB.
        Subclasses with sessions, timers or callbacks bound to
        themselves extend it."""
        self.links = []
        self.fib = Fib()

    # ------------------------------------------------------------------
    # local addressing
    # ------------------------------------------------------------------
    def add_local_prefix(self, prefix: Prefix) -> None:
        """Own a prefix (deliver its traffic locally)."""
        if prefix not in self.local_prefixes:
            self.local_prefixes.append(prefix)

    def remove_local_prefix(self, prefix: Prefix) -> None:
        """Stop owning a prefix."""
        if prefix in self.local_prefixes:
            self.local_prefixes.remove(prefix)

    def owns_address(self, address: IPv4Address) -> bool:
        """True if the address is ours or in an owned prefix."""
        if self.address is not None and self.address == address:
            return True
        return any(address in p for p in self.local_prefixes)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def receive(self, link: Link, message: Message) -> None:
        """Entry point for anything delivered by a link."""
        obs = self.bus.obs
        if obs is None:
            self._dispatch(link, message)
            return
        # Provenance: process the delivery inside the causal context the
        # sender stamped on the message (None for unattributed traffic).
        prev = obs.swap(getattr(message, "_prov", None))
        try:
            self._dispatch(link, message)
        finally:
            obs.swap(prev)

    def _dispatch(self, link: Link, message: Message) -> None:
        if isinstance(message, Packet):
            self._receive_packet(link, message)
        else:
            self.handle_message(link, message)

    def handle_message(self, link: Link, message: Message) -> None:
        """Control-plane dispatch; default drops silently."""

    def _receive_packet(self, link: Link, packet: Packet) -> None:
        packet.hops.append(self.name)
        self._route_packet(link, packet)

    def _route_packet(self, link: Optional[Link], packet: Packet) -> None:
        """Local-vs-forward decision, longest-prefix match winning.

        A node may own a covering prefix (the AS aggregate) while holding
        a more-specific route toward an attached host — the specific
        route must win, as it would on a real router.
        """
        if self.address is not None and self.address == packet.dst:
            self.handle_local_packet(link, packet)
            return
        entry = self.lookup_route(packet.dst)
        if entry is not None and entry.link is not None:
            self.forward_packet(packet, entry)
            return
        if entry is not None or self.owns_address(packet.dst):
            # Explicit local entry, or the address falls in an owned
            # prefix with nothing more specific: deliver here.
            self.handle_local_packet(link, packet)
            return
        self._drop(packet, "no_route")

    def handle_local_packet(self, link: Optional[Link], packet: Packet) -> None:
        """Packet addressed to this node.

        Every device answers echo requests (as real routers do) and
        records echo replies it receives, so ping works between any two
        addressed nodes.  Subclasses extend for other protocols.
        """
        from .messages import PING_PROTO

        if packet.proto == PING_PROTO:
            if packet.payload == "reply":
                self.echo_replies_received[packet.seq] = self.sim.now
                self.bus.record_lazy(
                    "ping.reply", self.name,
                    lambda: {"seq": packet.seq, "src": str(packet.src)},
                )
            else:
                reply = Packet(
                    src=packet.dst, dst=packet.src, proto=PING_PROTO,
                    seq=packet.seq, payload="reply",
                )
                self.send_packet(reply)

    # ------------------------------------------------------------------
    # forwarding (data plane)
    # ------------------------------------------------------------------
    def forward_packet(
        self, packet: Packet, entry: Optional[FibEntry] = None
    ) -> bool:
        """Forward via longest-prefix match; returns False if dropped."""
        if packet.ttl <= 0:
            return self._drop(packet, "ttl_expired")
        if entry is None:
            entry = self.lookup_route(packet.dst)
        if entry is None:
            return self._drop(packet, "no_route")
        link = entry.link
        if link is None:
            self.handle_local_packet(None, packet)
            return True
        if not link.up:
            return self._drop(packet, "link_down")
        packet.ttl -= 1
        self.packets_forwarded += 1
        return link.transmit(self, packet)

    def lookup_route(self, dst: IPv4Address) -> Optional[FibEntry]:
        """FIB lookup hook; SDN switches override with flow-table lookup."""
        return self.fib.lookup(dst)

    def _drop(self, packet: Packet, reason: str) -> bool:
        self.packets_dropped += 1
        self.bus.record_lazy(
            "packet.drop", self.name,
            lambda: {
                "reason": reason,
                "src": str(packet.src), "dst": str(packet.dst),
                "proto": packet.proto,
            },
        )
        return False

    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> bool:
        """Originate a packet from this node (routes like a received one)."""
        packet.hops.append(self.name)
        self._route_packet(None, packet)
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host inside some AS prefix, used for connectivity monitoring.

    Hosts additionally count received probe packets, which is what the
    framework's loss measurement and the demo's "end-to-end video
    application" stand-in consume.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.probes_received: list[Packet] = []

    def handle_local_packet(self, link: Optional[Link], packet: Packet) -> None:
        """Packet addressed to this node (answers pings)."""
        from .messages import PROBE_PROTO

        if packet.proto == PROBE_PROTO:
            self.probes_received.append(packet)
            self.bus.record_lazy(
                "probe.rx", self.name,
                lambda: {"seq": packet.seq, "src": str(packet.src)},
            )
            return
        super().handle_local_packet(link, packet)
