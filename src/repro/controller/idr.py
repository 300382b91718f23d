"""The proof-of-concept IDR SDN controller (paper §3, the POX app).

The controller exploits centralization to cut convergence time: instead
of letting every member AS explore paths with distributed BGP, it

1. maintains the **switch graph** from PortStatus events,
2. on route/topology events, rebuilds the per-prefix **AS topology
   graph** and runs **Dijkstra** on it,
3. **compiles** the resulting member decisions to flow rules pushed over
   the control channel, and
4. **re-advertises** the chosen routes to external peers through the
   cluster BGP speaker, preserving each member's AS identity.

Recomputation is *delayed* (a debounce timer): "the need for a delayed
recomputation of best paths on the controller's side, so as to improve
overall stability and rate-limit route flaps due to bursts in external
BGP input" — the second design insight of §3.  The delay is the
``recompute_delay`` knob; the ``abl-delayed-recompute`` benchmark sweeps
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..bgp.attrs import AsPath, Origin, PathAttributes
from ..bgp.policy import exports
from ..eventsim import DebounceTimer, Simulator
from ..net.addr import Prefix
from ..net.link import Link
from ..net.messages import Message
from ..net.node import Node
from ..obs.spans import activation, last_span_activation
from ..sdn.messages import BarrierReply, PacketIn, PortStatus
from ..sdn.switch import SDNSwitch
from .compiler import CompiledRule, compile_decisions
from .graphs import ExternalRoute, Peering, SwitchGraph, build_as_topology
from .routing import MemberDecision, compute_decisions
from .speaker import ClusterBGPSpeaker

__all__ = ["ControllerConfig", "IDRController"]


@dataclass
class ControllerConfig:
    """Tunables of the IDR controller."""

    #: debounce before best-path recomputation (the paper's delayed
    #: recomputation; 0 recomputes immediately after each event batch).
    recompute_delay: float = 0.5
    #: if True, the debounce window extends on every new event
    #: (quiescence-style); if False it fires a fixed delay after the
    #: first event of a burst (rate-limit style, the paper's behaviour).
    extend_on_burst: bool = False


class IDRController(Node):
    """Logically centralized routing decision process for the cluster."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "controller",
        *,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config if config is not None else ControllerConfig()
        self.switch_graph = SwitchGraph()
        self.speaker: Optional[ClusterBGPSpeaker] = None
        self._members: Dict[str, SDNSwitch] = {}
        self._control_links: Dict[str, Link] = {}
        #: prefix -> {member -> decision}
        self.decisions: Dict[Prefix, Dict[str, MemberDecision]] = {}
        #: prefix -> {member -> compiled rule} (what switches currently hold)
        self._compiled: Dict[Prefix, Dict[str, CompiledRule]] = {}
        #: prefix -> set of originating member names
        self.originations: Dict[Prefix, Set[str]] = {}
        #: prefix -> (SwitchGraphView, dest_edges, egress_choice) of its
        #: last computed AS topology graph; an unchanged one skips the
        #: recompute (:meth:`_recompute_prefix`).
        self._last_topology: Dict[Prefix, tuple] = {}
        self._dirty: Set[Prefix] = set()
        #: provenance of pending recomputation: prefix -> (context, time
        #: it went dirty); first cause wins, consumed by the recompute.
        self._dirty_ctx: Dict[Prefix, tuple] = {}
        self._recompute_timer = DebounceTimer(
            sim,
            self._recompute_dirty,
            self.config.recompute_delay,
            extend=self.config.extend_on_burst,
            label=f"{name}:recompute",
        )
        self.recomputations = 0
        self.flow_mods_sent = 0
        self.packet_ins = 0
        #: False while the controller process is "dead" (failover fault):
        #: inputs are dropped, no recomputation runs.  The speaker keeps
        #: advertising the last computed decisions, like a real route
        #: server surviving its policy engine.
        self.active = True

    # ------------------------------------------------------------------
    # cluster wiring (done by the framework's cluster builder)
    # ------------------------------------------------------------------
    def attach_speaker(self, speaker: ClusterBGPSpeaker) -> None:
        """Colocate with the speaker (controller runs on top of it)."""
        self.speaker = speaker
        speaker.attach_controller(self)

    def close(self) -> None:
        """Drop the recompute timer, whose callback is bound to this
        controller (the end of a trial, see
        :meth:`~repro.net.network.Network.close`)."""
        self._recompute_timer = None
        super().close()

    def register_member(self, switch: SDNSwitch, control_link: Link) -> None:
        """Add a member switch reachable over ``control_link``."""
        self._members[switch.name] = switch
        self._control_links[switch.name] = control_link
        self.switch_graph.add_member(switch.name, switch.asn)

    def register_intra_link(self, a: str, b: str, link_name: str) -> None:
        """Record an intra-cluster link in the switch graph."""
        self.switch_graph.add_intra_link(a, b, link_name)

    def members(self) -> List[str]:
        """Member switch names, sorted."""
        return sorted(self._members)

    # ------------------------------------------------------------------
    # prefix origination by member switches
    # ------------------------------------------------------------------
    def originate(self, member: str, prefix: Prefix) -> None:
        """Member AS ``member`` starts originating ``prefix``."""
        if member not in self._members:
            raise KeyError(f"not a member: {member!r}")
        self.originations.setdefault(prefix, set()).add(member)
        self._members[member].add_local_prefix(prefix)
        self.bus.record(
            "bgp.originate", member, prefix=str(prefix), via="controller"
        )
        # Provenance: the origination span roots the recompute cascade.
        with last_span_activation(self.bus.obs):
            self.mark_dirty([prefix])

    def withdraw(self, member: str, prefix: Prefix) -> None:
        """Member AS ``member`` stops originating ``prefix``."""
        members = self.originations.get(prefix, set())
        if member not in members:
            raise KeyError(f"{member} does not originate {prefix}")
        members.discard(member)
        if not members:
            self.originations.pop(prefix, None)
        self._members[member].remove_local_prefix(prefix)
        self.bus.record(
            "bgp.withdraw", member, prefix=str(prefix), via="controller"
        )
        with last_span_activation(self.bus.obs):
            self.mark_dirty([prefix])

    # ------------------------------------------------------------------
    # failover / crash-recovery (fault-injection semantics)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Kill the controller process: pending work lost, inputs ignored.

        Compiled state and the speaker's last advertisements survive (the
        data plane keeps forwarding on installed rules); only the
        decision process stops.
        """
        if not self.active:
            return
        self.active = False
        self._recompute_timer.cancel()
        self._dirty.clear()
        self._dirty_ctx.clear()
        self.bus.record("controller.fail", self.name)

    def recover(self) -> None:
        """Restart after :meth:`fail`: resync and recompute everything.

        PortStatus events that arrived during the outage are gone, so the
        switch graph is rebuilt from every member's actual link state (a
        real controller re-learns this in the reconnect handshake), then
        every known prefix is marked dirty for one recomputation round.
        """
        if self.active:
            return
        self.active = True
        self.bus.record("controller.recover", self.name)
        for name, switch in sorted(self._members.items()):
            for link in switch.links:
                if link.kind != "phys":
                    continue
                self.switch_graph.set_link_state(
                    name, link.other(switch).name, link.up
                )
        obs = self.bus.obs
        if obs is not None and obs.current is None:
            # Recovery is a root cause: the catch-up recompute it queues
            # hangs off this span rather than appearing uncaused.
            ctx = obs.emit_root("controller.recover", self.name)
            with activation(obs, ctx):
                self.mark_dirty(self.known_prefixes())
        else:
            self.mark_dirty(self.known_prefixes())

    def member_rebooted(self, member: str) -> None:
        """A member switch lost its flow table (crash/restart).

        Forget what we believe is installed there and recompute, so the
        next round re-pushes the member's rules from scratch.
        """
        for rules in self._compiled.values():
            rules.pop(member, None)
        # The member's rules must be re-pushed even where nothing else
        # changed.
        self._last_topology.clear()
        self.bus.record("controller.member_reboot", self.name, member=member)
        if self.active:
            self.mark_dirty(self.known_prefixes())

    def _drop_while_down(self, what: str) -> None:
        self.bus.record("controller.dropped", self.name, event=what)

    # ------------------------------------------------------------------
    # events from the speaker
    # ------------------------------------------------------------------
    def route_event(self, peering: Peering, prefixes: List[Prefix]) -> None:
        """External BGP input changed some prefixes at one peering."""
        if not self.active:
            self._drop_while_down("route_event")
            return
        self.bus.record_lazy(
            "controller.route_event", self.name,
            lambda: {
                "peering": str(peering),
                "prefixes": [str(p) for p in prefixes],
            },
        )
        self.mark_dirty(prefixes)

    def peering_established(self, peering: Peering) -> None:
        """Speaker callback: a peering came up."""
        if not self.active:
            self._drop_while_down("peering_established")
            return
        self.bus.record(
            "controller.peering.up", self.name, peering=str(peering)
        )

    def peering_lost(self, peering: Peering, affected: List[Prefix]) -> None:
        """Speaker callback: a peering went down."""
        if not self.active:
            self._drop_while_down("peering_lost")
            return
        self.bus.record_lazy(
            "controller.peering.down", self.name,
            lambda: {
                "peering": str(peering),
                "prefixes": [str(p) for p in affected],
            },
        )
        self.mark_dirty(affected)

    def mark_dirty(self, prefixes) -> None:
        """Queue prefixes for the next (debounced) recompute."""
        if not self.active:
            return
        prefixes = list(prefixes)
        obs = self.bus.obs
        if obs is not None:
            # Provenance: remember what first dirtied each prefix so the
            # eventual recompute span is parented under its true cause.
            now = self.sim.now
            for prefix in prefixes:
                if prefix not in self._dirty_ctx:
                    self._dirty_ctx[prefix] = (obs.current, now)
        self._dirty.update(prefixes)
        if self._dirty:
            self._recompute_timer.trigger()

    # ------------------------------------------------------------------
    # control-channel messages from switches
    # ------------------------------------------------------------------
    def handle_message(self, link: Link, message: Message) -> None:
        """Control-plane dispatch for one delivered message."""
        if not self.active:
            self._drop_while_down(type(message).__name__)
            return
        if isinstance(message, PortStatus):
            self._handle_port_status(message)
        elif isinstance(message, PacketIn):
            self.packet_ins += 1
            self.bus.record_lazy(
                "controller.packet_in", self.name,
                lambda: {"switch": message.switch, "dst": message.dst},
            )
        elif isinstance(message, BarrierReply):
            pass

    def _handle_port_status(self, status: PortStatus) -> None:
        self.bus.record_lazy(
            "controller.port_status", self.name,
            lambda: {
                "switch": status.switch, "peer": status.peer,
                "up": status.up,
            },
        )
        changed = self.switch_graph.set_link_state(
            status.switch, status.peer, status.up
        )
        # Any topology change (intra-cluster link or an egress peering
        # link) can invalidate every computed route: recompute all.
        self.mark_dirty(self.known_prefixes())
        if changed:
            self.bus.record_lazy(
                "controller.switch_graph", self.name,
                lambda: {
                    "sub_clusters": [
                        sorted(c) for c in self.switch_graph.sub_clusters()
                    ],
                },
            )

    # ------------------------------------------------------------------
    # delayed recomputation
    # ------------------------------------------------------------------
    def _recompute_dirty(self) -> None:
        dirty, self._dirty = self._dirty, set()
        if not dirty:
            return
        self.recomputations += 1
        obs = self.bus.obs
        if obs is None:
            self._record_recompute(dirty)
            for prefix in sorted(dirty):
                self._recompute_prefix(prefix)
            return
        # Provenance: the recompute fires from a debounce timer, so the
        # causal context was captured when the prefixes went dirty.
        # Parent under the earliest cause (deterministic tie-break by
        # span id) and stretch the span across the debounce wait.
        entries = []
        for prefix in dirty:
            entry = self._dirty_ctx.pop(prefix, None)
            if entry is not None:
                entries.append(entry)
        if entries:
            ctx, t_first = min(
                entries,
                key=lambda e: (e[1], e[0][1] if e[0] is not None else -1),
            )
            wait = self.sim.now - t_first
        else:
            ctx, t_first, wait = obs.current, self.sim.now, 0.0
        prev = obs.swap(ctx)
        try:
            self._record_recompute(dirty)
            obs.annotate_last(t_start=t_first, debounce_wait=wait)
            obs.swap(obs.last_ctx)
            for prefix in sorted(dirty):
                self._recompute_prefix(prefix)
        finally:
            obs.swap(prev)

    def _record_recompute(self, dirty) -> None:
        self.bus.record_lazy(
            "controller.recompute", self.name,
            lambda: {
                "prefixes": [str(p) for p in sorted(dirty)],
                "coalesced": self._recompute_timer.triggers_coalesced,
            },
        )

    def _recompute_prefix(self, prefix: Prefix) -> None:
        routes = (
            self.speaker.external_routes(prefix)
            if self.speaker is not None
            else []
        )
        topo = build_as_topology(
            self.switch_graph,
            prefix,
            routes,
            self.originations.get(prefix, ()),
        )
        # The decisions are a function of the view (members, links,
        # ASNs) and the edges to DEST.  If neither moved since this
        # prefix was last computed, the decisions, the compiled rules,
        # the FlowMods and the advertisements would all come out as
        # they are: stop here.
        view = self.switch_graph.view()
        last = self._last_topology.get(prefix)
        if (
            last is not None
            and last[0] is view
            and last[1] == topo.dest_edges
            and last[2] == topo.egress_choice
        ):
            return
        self._last_topology[prefix] = (
            view, topo.dest_edges, topo.egress_choice
        )
        decisions = compute_decisions(topo, self.switch_graph.member_asn)
        old_decisions = self.decisions.get(prefix, {})
        compiled, plan = compile_decisions(
            prefix, decisions, self.switch_graph, self._compiled.get(prefix)
        )
        self.decisions[prefix] = decisions
        self._compiled[prefix] = compiled
        for member, mod in plan.installs:
            self._send_to_switch(member, mod)
        for member, removal in plan.removals:
            self._send_to_switch(member, removal)
        if decisions != old_decisions and self.speaker is not None:
            self.bus.record(
                "controller.advertise", self.name, prefix=str(prefix)
            )
            with last_span_activation(self.bus.obs):
                self.speaker.schedule_all_sessions(prefix)

    def _send_to_switch(self, member: str, message: Message) -> None:
        link = self._control_links.get(member)
        if link is None or not link.up:
            self.bus.record(
                "controller.control_link_down", self.name, member=member
            )
            return
        self.flow_mods_sent += 1
        self.bus.record_lazy(
            "controller.flow_install", self.name,
            lambda: {"member": member, "message": type(message).__name__},
        )
        # Provenance: the FlowMod carries the flow_install span so the
        # switch's fib.change lands under it.
        with last_span_activation(self.bus.obs):
            link.transmit(self, message)

    # ------------------------------------------------------------------
    # advertisement generation (asked by the speaker per peering)
    # ------------------------------------------------------------------
    def desired_advertisement(
        self, peering: Peering, prefix: Prefix
    ) -> Optional[PathAttributes]:
        """What the cluster should advertise for ``prefix`` at ``peering``.

        The AS path is the member-ASN chain along the intra-cluster
        forwarding path, followed by the chosen egress's external path —
        the cluster looks like a normal sequence of ASes to the legacy
        world, keeping legacy loop detection sound.
        """
        decision = self.decisions.get(prefix, {}).get(peering.member)
        if decision is None or not decision.reachable:
            return None
        route = self._egress_route(prefix, decision)
        if route is not None and route.peering == peering:
            return None  # split horizon toward the chosen egress peering
        if not self._export_permitted(route, peering):
            return None  # valley-free export rule
        if route is not None:
            as_path = route.as_path.prepend_sequence(decision.as_chain)
            origin = route.origin
            med = route.med
        else:
            as_path = AsPath(decision.as_chain)
            origin = Origin.IGP
            med = 0
        return PathAttributes(as_path=as_path, origin=origin, med=med)

    @staticmethod
    def _export_permitted(route, peering: Peering) -> bool:
        """Gao-Rexford export check for the cluster as a whole.

        The legacy routers' rule (:func:`repro.bgp.policy.exports`), with
        the cluster as one AS: a locally originated route
        (``route is None``) has no learned relationship.
        """
        learned = None if route is None else route.peering.relationship
        return exports(learned, peering.relationship)

    def _egress_route(
        self, prefix: Prefix, decision: MemberDecision
    ) -> Optional[ExternalRoute]:
        """The external route backing ``decision`` (None for local origin)."""
        node = decision
        decisions = self.decisions.get(prefix, {})
        seen = set()
        while node is not None and node.kind == "forward":
            if node.member in seen:  # pragma: no cover - defensive
                return None
            seen.add(node.member)
            node = decisions.get(node.next_member)
        if node is not None and node.kind == "egress":
            return node.route
        return None

    # ------------------------------------------------------------------
    def known_prefixes(self) -> List[Prefix]:
        """Everything the cluster has a route for or originates."""
        seen = set(self.originations)
        if self.speaker is not None:
            seen.update(self.speaker.known_external_prefixes())
        seen.update(self.decisions)
        return sorted(seen)

    def flush_now(self) -> None:
        """Force an immediate recomputation (test/experiment hook)."""
        self._recompute_timer.cancel()
        self._recompute_dirty()

    # ------------------------------------------------------------------
    # consistency auditing
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Cross-check controller state against the switches' tables.

        Returns a list of human-readable discrepancies (empty = clean):
        rules the controller believes are installed but the switch lacks
        (lost FlowMods — e.g. a control link was down), rules present
        with a different action than compiled, and orphaned IDR-cookied
        rules for prefixes the controller no longer tracks.  This is the
        operational check a real deployment runs after control-channel
        hiccups.
        """
        problems: List[str] = []
        for prefix, rules in sorted(self._compiled.items()):
            for member, rule in sorted(rules.items()):
                switch = self._members.get(member)
                if switch is None:  # pragma: no cover - defensive
                    problems.append(f"{member}: unknown member for {prefix}")
                    continue
                actual = [
                    r for r in switch.flow_table
                    if r.match == prefix and r.cookie == f"idr:{prefix}"
                ]
                if not actual:
                    problems.append(
                        f"{member}: missing rule for {prefix} "
                        f"(expected {rule.action_type})"
                    )
                    continue
                flow = actual[0]
                actual_target = (
                    flow.action.link.name
                    if flow.action.link is not None
                    else flow.action.type.value
                )
                expected_target = rule.out_link_name or rule.action_type
                if actual_target != expected_target:
                    problems.append(
                        f"{member}: rule for {prefix} points at "
                        f"{actual_target}, compiled {expected_target}"
                    )
        tracked = set(self._compiled)
        for member, switch in sorted(self._members.items()):
            for flow in switch.flow_table:
                if not flow.cookie.startswith("idr:"):
                    continue
                if flow.match not in tracked or member not in self._compiled.get(
                    flow.match, {}
                ):
                    problems.append(
                        f"{member}: orphaned rule for {flow.match}"
                    )
        return problems

    def repair(self) -> int:
        """Re-push every compiled rule (recovery after control-link loss).

        Returns the number of FlowMods sent.  Orphans are removed by
        cookie.
        """
        from ..sdn.messages import FlowRemove

        sent = 0
        for prefix, rules in sorted(self._compiled.items()):
            for member, rule in sorted(rules.items()):
                self._send_to_switch(member, rule.to_flow_mod())
                sent += 1

        tracked = set(self._compiled)
        for member, switch in sorted(self._members.items()):
            orphans = {
                flow.match
                for flow in switch.flow_table
                if flow.cookie.startswith("idr:")
                and (
                    flow.match not in tracked
                    or member not in self._compiled.get(flow.match, {})
                )
            }
            for prefix in sorted(orphans):
                self._send_to_switch(member, FlowRemove(cookie=f"idr:{prefix}"))
                sent += 1
        return sent
