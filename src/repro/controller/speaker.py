"""Cluster BGP speaker (the framework's ExaBGP substitute).

"Within the SDN cluster we have a special BGP speaker, called cluster
BGP speaker, which relays routing information between external BGP
routers and the SDN controller" (paper §3).

The speaker terminates one eBGP session per external peering of every
cluster member, *speaking as the member's ASN* so the cluster stays
transparent to the legacy world (design goal §2).  Each session runs
over a dedicated relay link to the member's border switch, which
shuttles the BGP bytes to/from the physical peering link.

The speaker is deliberately dumb: its sessions keep per-peering
Adj-RIB-In / Adj-RIB-Out, it forwards route events to the IDR
controller, and asks the controller what to advertise.  All route *selection* lives in the
controller (unlike RouteFlow, which mirrors legacy protocols — see the
paper's related-work comparison).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional

from ..bgp.attrs import PathAttributes
from ..bgp.messages import BGPMessage, BGPUpdate
from ..bgp.rib import Route, RouteIndex
from ..bgp.session import BGPSession, BGPTimers
from ..eventsim import Simulator
from ..net.addr import Prefix
from ..net.link import Link
from ..net.messages import Message
from ..net.node import Node
from ..obs.spans import activation
from ..sdn.messages import PeeringStatus
from .graphs import ExternalRoute, Peering

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .idr import IDRController

__all__ = ["ClusterBGPSpeaker", "SPEAKER_ASN"]

#: Private ASN for the speaker process itself (never appears on the wire
#: — sessions speak with member ASNs).
SPEAKER_ASN = 64900


class _ControllerRibView:
    """Duck-typed Loc-RIB stand-in: sessions resync from the controller's
    set of known prefixes instead of a local best-route table."""

    def __init__(self, speaker: "ClusterBGPSpeaker") -> None:
        self._speaker = speaker

    def prefixes(self) -> List[Prefix]:
        """All prefixes currently held, as a list."""
        if not self._speaker.controller_reachable:
            return []
        controller = self._speaker.controller
        return controller.known_prefixes() if controller is not None else []


class _ExternalRouteIndex(RouteIndex):
    """The speaker's prefix index: each route its Adj-RIB-Ins hold, as
    the :class:`ExternalRoute` the controller reads.

    The tables feed it as they feed a router's :class:`RouteIndex`, so
    an external route is made once, when its route is learned, and
    leaves with it on withdraw or clear.
    """

    __slots__ = ("_peering_of",)

    def __init__(self, peering_of: Dict[int, Peering]) -> None:
        super().__init__()
        self._peering_of = peering_of

    def set(self, link_id: int, route: Route) -> None:
        """Install/replace the external route for one peering's table."""
        attrs = route.attrs
        super().set(link_id, ExternalRoute(
            peering=self._peering_of[link_id],
            prefix=route.prefix,
            as_path=attrs.as_path,
            origin=attrs.origin,
            med=attrs.med,
            learned_at=route.learned_at,
        ))


class ClusterBGPSpeaker(Node):
    """BGP endpoint of the SDN cluster; one session per external peering."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "speaker",
        *,
        timers: Optional[BGPTimers] = None,
    ) -> None:
        super().__init__(sim, name)
        self.asn = SPEAKER_ASN
        #: ExaBGP applies no MRAI; the controller's delayed recomputation
        #: is the cluster's rate limiter (paper §3).
        self.timers = timers if timers is not None else BGPTimers(mrai=0.0)
        self.controller: Optional["IDRController"] = None
        self.loc_rib = _ControllerRibView(self)
        self.sessions: Dict[int, BGPSession] = {}       # relay link id ->
        self.peering_of: Dict[int, Peering] = {}        # relay link id ->
        #: prefix -> {relay link id: ExternalRoute}, fed by the
        #: Adj-RIB-Ins; :meth:`external_routes` reads it.
        self._index = _ExternalRouteIndex(self.peering_of)
        # Every UPDATE is applied a fixed delay after it arrives, so the
        # processing events fire in arrival order: one FIFO and one
        # bound callback instead of a closure per UPDATE.
        self._update_queue: deque = deque()
        self._process_callback = self._process_one
        self._process_label = f"{name}:proc"
        self.updates_processed = 0
        #: False while the speaker-controller channel is partitioned:
        #: callbacks to the controller are dropped and advertisements
        #: freeze at the last pushed policy (an ExaBGP process that lost
        #: its API pipe keeps announcing what it was last told).
        self.controller_reachable = True

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_controller(self, controller: "IDRController") -> None:
        """Bind the IDR controller for event callbacks."""
        self.controller = controller

    def add_peering(
        self,
        peering: Peering,
        relay_link: Link,
        *,
        timers: Optional[BGPTimers] = None,
        policy=None,
    ) -> BGPSession:
        """Create the session for one external peering over ``relay_link``."""
        if relay_link.link_id in self.sessions:
            raise ValueError(f"peering already bound to {relay_link.name}")
        session = BGPSession(
            self,
            relay_link,
            policy=policy,
            timers=timers if timers is not None else self.timers,
            local_asn=peering.member_asn,
        )
        self.sessions[relay_link.link_id] = session
        self.peering_of[relay_link.link_id] = peering
        return session

    def start(self) -> None:
        """Begin connecting all configured sessions."""
        for session in self.sessions.values():
            session.start()

    def close(self) -> None:
        """Close every session and drop what points back here: the
        controller, the Loc-RIB view and the processing callback."""
        for session in self.sessions.values():
            session.close()
        self.controller = self.loc_rib = self._process_callback = None
        super().close()

    # ------------------------------------------------------------------
    # controller-speaker partition (fault-injection semantics)
    # ------------------------------------------------------------------
    def partition(self) -> None:
        """Cut the speaker-controller channel (both directions)."""
        if not self.controller_reachable:
            return
        self.controller_reachable = False
        self.bus.record("speaker.partition", self.name)

    def heal_partition(self) -> None:
        """Restore the channel and resynchronize both directions.

        Route/peering events that happened during the partition were
        dropped; the controller re-reads the speaker's current RIBs by
        recomputing every known prefix, and every session reconsiders
        its advertisement against the controller's current decisions.
        """
        if self.controller_reachable:
            return
        self.controller_reachable = True
        self.bus.record("speaker.partition.heal", self.name)
        if self.controller is None:
            return
        prefixes = set(self.controller.known_prefixes())
        prefixes.update(self.known_external_prefixes())
        self.controller.mark_dirty(sorted(prefixes))
        for prefix in sorted(prefixes):
            self.schedule_all_sessions(prefix)

    def _drop_partitioned(self, what: str) -> None:
        self.bus.record("speaker.partition.drop", self.name, event=what)

    def peerings(self) -> List[Peering]:
        """All configured peerings, deterministic order."""
        return [self.peering_of[lid] for lid in sorted(self.peering_of)]

    def session_for(self, peering: Peering) -> Optional[BGPSession]:
        """The session bound to one peering, if any."""
        for link_id, p in self.peering_of.items():
            if p == peering:
                return self.sessions[link_id]
        return None

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, link: Link, message: Message) -> None:
        """Control-plane dispatch for one delivered message."""
        if isinstance(message, PeeringStatus):
            self._handle_peering_status(link, message)
            return
        if isinstance(message, BGPMessage):
            session = self.sessions.get(link.link_id)
            if session is not None:
                session.handle_message(message)

    def _handle_peering_status(self, link: Link, status: PeeringStatus) -> None:
        session = self.sessions.get(link.link_id)
        if session is None:
            return
        self.bus.record(
            "speaker.peering", self.name,
            switch=status.switch, peer=status.peer, up=status.up,
        )
        if status.up:
            session.peer_reachable()
        else:
            session.peer_unreachable()

    def link_state_changed(self, link: Link) -> None:
        """React to an attached link flipping up/down."""
        session = self.sessions.get(link.link_id)
        if session is not None:
            session.link_state_changed()

    # ------------------------------------------------------------------
    # BGPSession host interface
    # ------------------------------------------------------------------
    def session_up(self, session: BGPSession) -> None:
        """Session reached ESTABLISHED: reset RIBs and resync."""
        session.reset_tables(self._index)
        peering = self.peering_of[session.link.link_id]
        self.bus.record(
            "speaker.session.up", self.name,
            peering=str(peering), peer_asn=session.peer_asn,
        )
        obs = self.bus.obs
        if obs is not None and obs.current is None:
            # Timer-driven establishment is its own root cause (mirrors
            # BGPRouter.session_up).
            ctx = obs.emit_root(
                "bgp.session.up", self.name, peering=str(peering)
            )
            with activation(obs, ctx):
                session.resync()
        else:
            session.resync()
        if self.controller is None:
            return
        if not self.controller_reachable:
            self._drop_partitioned("peering_established")
            return
        self.controller.peering_established(peering)

    def session_down(self, session: BGPSession, *, reason: str = "") -> None:
        """Session lost: flush per-peer state, re-decide."""
        peering = self.peering_of[session.link.link_id]
        affected = session.clear_tables()
        self.bus.record(
            "speaker.session.down", self.name,
            peering=str(peering), reason=reason,
        )
        if self.controller is None:
            return
        if not self.controller_reachable:
            self._drop_partitioned("peering_lost")
            return
        obs = self.bus.obs
        if obs is not None and obs.current is None:
            ctx = obs.emit_root(
                "bgp.session.down", self.name,
                peering=str(peering), reason=reason,
            )
            with activation(obs, ctx):
                self.controller.peering_lost(peering, affected)
        else:
            self.controller.peering_lost(peering, affected)

    def enqueue_update(self, session: BGPSession, update: BGPUpdate) -> None:
        """Queue a received UPDATE for serialized processing."""
        self.bus.record_lazy(
            "bgp.update.rx", self.name,
            lambda: {
                "peer": session.peer_name,
                "peering": str(self.peering_of[session.link.link_id]),
                "announced": update.rendered()[0],
                "withdrawn": update.rendered()[1],
                "update_id": update.update_id,
            },
        )
        # Small parse delay, then apply (the speaker is a thin proxy; it
        # does not serialize like a full bgpd).  The deferred apply
        # re-enters the rx span's causal context captured here.
        obs = self.bus.obs
        ctx = obs.last_ctx if obs is not None else None
        self._update_queue.append((session, update, ctx))
        self.sim.schedule(
            0.002, self._process_callback, label=self._process_label
        )

    def _process_one(self) -> None:
        session, update, ctx = self._update_queue.popleft()
        with activation(self.bus.obs, ctx):
            self._apply_update(session, update)

    def _apply_update(self, session: BGPSession, update: BGPUpdate) -> None:
        if not session.established:
            return
        self.updates_processed += 1
        link_id = session.link.link_id
        peering = self.peering_of[link_id]
        rib_in = session.rib_in
        affected: List[Prefix] = []
        for prefix in update.withdrawn:
            if rib_in.withdraw(prefix):
                affected.append(prefix)
        for prefix, attrs in update.announced:
            # Per-session loop check against the member's own ASN; the
            # sub-cluster-wide check happens in the graph transform.
            if attrs.as_path.contains(peering.member_asn):
                if rib_in.withdraw(prefix):
                    affected.append(prefix)
                continue
            route = Route(
                prefix=prefix, attrs=attrs,
                peer_asn=session.peer_asn, peer_name=session.peer_name,
                learned_at=self.sim.now, link_id=link_id,
            )
            if rib_in.update(route):
                affected.append(prefix)
        if affected and self.controller is not None:
            if not self.controller_reachable:
                self._drop_partitioned("route_event")
                return
            self.controller.route_event(peering, affected)

    def _export_attrs(
        self, session: BGPSession, prefix: Prefix
    ) -> Optional[PathAttributes]:
        """What the controller wants this peering to see for ``prefix``,
        or None (the session host's one export question)."""
        if not self.controller_reachable:
            # Partitioned: no policy input, so what was sent stands —
            # the session sees no change and sends nothing.
            return session.rib_out.get(prefix)
        if self.controller is None:
            return None
        return self.controller.desired_advertisement(
            self.peering_of[session.link.link_id], prefix
        )

    # ------------------------------------------------------------------
    # controller-facing queries
    # ------------------------------------------------------------------
    def external_routes(self, prefix: Optional[Prefix] = None) -> List[ExternalRoute]:
        """Snapshot of all usable external routes (per peering best).

        Read from the index: one prefix's entries in ascending relay
        link id, which is the order peerings were added (link ids are
        globally monotone); every prefix, table by table.
        """
        index = self._index
        sessions = self.sessions
        if prefix is not None:
            entry = index.get(prefix)
            return [
                entry[link_id] for link_id in sorted(entry)
                if sessions[link_id].established
            ]
        out: List[ExternalRoute] = []
        for link_id, session in sessions.items():
            if session.established:
                out.extend(
                    index.get(p)[link_id] for p in session.rib_in.prefixes()
                )
        return out

    def known_external_prefixes(self) -> List[Prefix]:
        """Sorted prefixes present in any Adj-RIB-In."""
        return sorted(self._index.prefixes())

    def schedule_all_sessions(self, prefix: Prefix) -> None:
        """Let every peering reconsider its advertisement for ``prefix``."""
        if not self.controller_reachable:
            self._drop_partitioned("advertise")
            return
        for link_id in sorted(self.sessions):
            self.sessions[link_id].schedule_route(prefix)
