"""Experiment lifecycle orchestration — the framework's high-level API.

This is the layer the paper contrasts with MiniNExT: "our framework
focuses on multi-AS IDR experiments and provides a high-level API for
experiment lifecycle orchestration."  An :class:`Experiment` takes an
AS-level :class:`~repro.topology.model.Topology` plus the set of ASes
under centralized (SDN) control, builds every device — legacy BGP
routers, cluster switches, the IDR controller, the cluster BGP speaker,
the route collector, hosts — wires links and addresses, and exposes the
"Mininet-BGP commands": announce, withdraw, fail/restore links, wait
until BGP has converged, check connectivity.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..bgp.collector import RouteCollector
from ..bgp.damping import DampingConfig
from ..bgp.policy import (
    PeerPolicy,
    Relationship,
    gao_rexford_policy,
    transit_all_policy,
)
from ..bgp.router import BGPRouter
from ..bgp.session import BGPTimers
from ..config.allocator import PrefixAllocator
from ..controller.graphs import Peering
from ..controller.idr import ControllerConfig, IDRController
from ..controller.speaker import ClusterBGPSpeaker
from ..eventsim.metrics import records_snapshot
from ..net.addr import Prefix
from ..net.dataplane import FibEntry
from ..net.link import Link
from ..net.messages import Packet, PING_PROTO
from ..net.network import Network, PathTrace
from ..net.node import Host, Node
from ..sdn.flowtable import FlowAction, FlowRule
from ..sdn.switch import SDNSwitch
from ..topology.model import Topology

__all__ = [
    "ExperimentConfig",
    "Experiment",
    "ExperimentError",
    "POLICY_MODES",
]

#: Pool that on-demand "event prefixes" (announce/withdraw experiments)
#: are carved from, distinct from the automatic AS prefixes.
EVENT_POOL = Prefix.parse("192.168.0.0/16")
EVENT_PREFIX_LEN = 24
EVENT_POOL_SIZE = EVENT_POOL.num_addresses >> (32 - EVENT_PREFIX_LEN)

#: Priority used for static host routes in switch flow tables, above any
#: controller-computed rule (max prefix length is 32).
HOST_RULE_PRIORITY = 1000

#: latencies (seconds) of the links the framework adds around the AS
#: graph: controller<->member control channels, speaker<->member
#: relays, router<->collector feeds, and host stubs.
CONTROL_LATENCY = 0.001
RELAY_LATENCY = 0.001
COLLECTOR_LATENCY = 0.001
HOST_LATENCY = 0.0005

#: ``ExperimentConfig.policy_mode`` -> per-session policy by peer
#: relationship.  Spec ingest validates against these names.
POLICY_MODES = {
    "flat": lambda relationship: transit_all_policy(),
    "gao_rexford": gao_rexford_policy,
}


class ExperimentError(RuntimeError):
    """Misuse of the experiment API (unknown AS, event before build...)."""


@contextlib.contextmanager
def _full_collections_held() -> Iterator[None]:
    """Keep CPython from running any automatic collection inside the
    block: every generation is held (threshold 0 switches them off).

    A trial makes no cyclic garbage of its own: what it allocates is
    live until :meth:`Experiment.close` cuts its one reference cycle,
    and then refcounting frees all of it.  So every pass inside a
    trial walks live objects and frees nothing — a 5000-AS ``build()``
    + ``start()`` ran 1,606 young passes, and an observed Fig. 2 round
    five full ones over 115k-154k objects.  ``build()``, ``start()``,
    :func:`~repro.framework.convergence.measure_event` (event to
    settle) and :func:`~repro.experiments.common.run_scenario_full`
    (build to close) hold it.  A measured event on a long-lived
    experiment — a storm phase, outside any trial — makes no cyclic
    garbage either, but its allocations would trigger full passes over
    the whole network's heap (about 0.4 s each at 5000 ASes).

    A block entered with the young threshold already 0 (a nested
    block: ``build()`` in ``start()`` in a trial) or with the collector
    off changes nothing; otherwise the thresholds it saved come back
    on the way out, exception or not.  The process runs one trial at a
    time (``repro serve`` runs its trials in worker processes), so
    nothing else is inside the hold when it lifts.
    """
    saved = gc.get_threshold()
    if saved[0] == 0 or not gc.isenabled():
        yield
        return
    gc.set_threshold(0, *saved[1:])
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@dataclass
class ExperimentConfig:
    """Everything configurable about an experiment build."""

    seed: int = 0
    #: one of :data:`POLICY_MODES`: "flat" (transit-all; the paper's
    #: clique setting) or "gao_rexford".
    policy_mode: str = "flat"
    timers: BGPTimers = field(default_factory=BGPTimers)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    #: optional RFC 2439 route-flap damping on every legacy router.
    damping: Optional[DampingConfig] = None
    with_collector: bool = True
    #: every AS originates its own /24 at start (baseline connectivity).
    originate_all: bool = True
    #: override all topology link latencies if not None.
    phys_latency: Optional[float] = None
    #: settle horizon for :meth:`Experiment.wait_converged`.
    horizon: float = 1e5
    #: give the run a metrics payload (:meth:`Experiment.metrics_snapshot`:
    #: the bus's per-category record counts as ``records_total``
    #: counters); the runner also reads wall time by layer.
    metrics: bool = False
    #: attach a causal-provenance SpanTracker to the bus: every
    #: route-affecting record becomes a span with (cause_id, parent_id)
    #: lineage.  Passive — results are bit-identical with spans on/off.
    spans: bool = False

    def session_timers(self) -> BGPTimers:
        """A private copy of the session timer config."""
        return replace(self.timers)

    def collector_timers(self) -> BGPTimers:
        """The collector's timers and those of every session toward it:
        the experiment's, with MRAI off (feeds report immediately)."""
        return replace(self.timers, mrai=0.0)

    def speaker_timers(self) -> BGPTimers:
        """The speaker applies no MRAI (ExaBGP behaviour); the
        controller's delayed recomputation is the cluster rate limit."""
        return replace(self.timers, mrai=0.0)


class Experiment:
    """One hybrid BGP/SDN emulation experiment."""

    def __init__(
        self,
        topology: Topology,
        *,
        sdn_members: Sequence[int] = (),
        config: Optional[ExperimentConfig] = None,
        name: str = "experiment",
    ) -> None:
        self.topology = topology
        self.config = config if config is not None else ExperimentConfig()
        self.name = name
        self.sdn_asns: Set[int] = set(sdn_members)
        unknown = self.sdn_asns - set(topology.asns)
        if unknown:
            raise ExperimentError(f"SDN members not in topology: {sorted(unknown)}")
        self.net: Optional[Network] = None
        self.allocator = PrefixAllocator()
        self.controller: Optional[IDRController] = None
        self.speaker: Optional[ClusterBGPSpeaker] = None
        self.collector: Optional[RouteCollector] = None
        self.hosts: Dict[int, List[Host]] = {}
        self._as_node: Dict[int, Node] = {}
        self._phys_link: Dict[Tuple[int, int], Link] = {}
        #: one policy object per peer relationship (None: a collector
        #: feed), shared by every session that has it — see _policy.
        self._policies: Dict[Optional[Relationship], PeerPolicy] = {}
        self._event_prefix_index = 0
        self._built = False
        self._started = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @_full_collections_held()
    def build(self) -> "Experiment":
        """Instantiate all devices and links (idempotent no; call once).

        Publishes no record: a subscriber attached between ``build()``
        and :meth:`start` sees the whole run.
        """
        if self._built:
            raise ExperimentError("experiment already built")
        self._built = True
        self.net = Network(seed=self.config.seed)
        if self.config.spans:
            self.net.enable_spans()
        self._build_cluster_core()
        self._build_as_nodes()
        self._build_phys_links()
        self._build_collector()
        return self

    def _build_cluster_core(self) -> None:
        if not self.sdn_asns:
            return
        self.controller = self.net.add_node(
            IDRController(
                self.net.sim, "controller",
                config=self.config.controller,
            )
        )
        self.speaker = self.net.add_node(
            ClusterBGPSpeaker(
                self.net.sim, "speaker",
                timers=self.config.speaker_timers(),
            )
        )
        self.controller.attach_speaker(self.speaker)

    def _build_as_nodes(self) -> None:
        for spec in self.topology.ases:
            self._make_as_node(spec)

    def _make_as_node(self, spec) -> Node:
        """The device for one AS: a cluster switch on its control link
        if the AS is in ``sdn_asns``, a BGP router otherwise."""
        asn = spec.asn
        node_name = spec.label()
        if asn in self.sdn_asns:
            node = SDNSwitch(self.net.sim, node_name, asn=asn)
            self.net.add_node(node)
            control = self.net.add_link(
                self.controller, node,
                latency=CONTROL_LATENCY, kind="control",
                name=f"ctl-{node_name}",
            )
            node.set_control_link(control)
            self.controller.register_member(node, control)
        else:
            node = BGPRouter(
                self.net.sim, node_name,
                asn=asn, timers=self.config.session_timers(),
                damping=self.config.damping,
            )
            self.net.add_node(node)
        node.address = self.allocator.router_address(asn)
        self._as_node[asn] = node
        return node

    def _build_phys_links(self) -> None:
        for topo_link in self.topology.links:
            self._wire_topo_link(topo_link)

    def _wire_topo_link(self, topo_link) -> Link:
        """Create and fully configure the emulated link for one
        topology adjacency (sessions / relay / intra registration)."""
        a, b = topo_link.a, topo_link.b
        node_a, node_b = self._as_node[a], self._as_node[b]
        latency = (
            self.config.phys_latency
            if self.config.phys_latency is not None
            else topo_link.latency
        )
        link = self.net.add_link(
            node_a, node_b, latency=latency, kind="phys",
            name=f"{node_a.name}--{node_b.name}",
        )
        link.net_index = self.allocator.link_index()
        self._phys_link[(min(a, b), max(a, b))] = link
        a_sdn, b_sdn = a in self.sdn_asns, b in self.sdn_asns
        if not a_sdn and not b_sdn:
            rel_a = topo_link.relationship_for(a)
            rel_b = topo_link.relationship_for(b)
            node_a.add_peer(link, policy=self._policy(rel_a))
            node_b.add_peer(link, policy=self._policy(rel_b))
        elif a_sdn and b_sdn:
            self.controller.register_intra_link(
                node_a.name, node_b.name, link.name
            )
        else:
            member_asn, external_asn = (a, b) if a_sdn else (b, a)
            self._build_peering(
                topo_link, link,
                self._as_node[member_asn], self._as_node[external_asn],
            )
        return link

    def _build_peering(
        self, topo_link, phys_link: Link, member: Node, external: Node
    ) -> None:
        """Wire one member<->legacy peering: relay link + speaker session."""
        relationship = topo_link.relationship_for(external.asn)
        external.add_peer(phys_link, policy=self._policy(relationship))
        relay = self.net.add_link(
            self.speaker, member,
            latency=RELAY_LATENCY, kind="relay",
            name=f"relay-{member.name}-{external.name}",
        )
        member.add_border_relay(phys_link, relay)
        peering = Peering(
            member=member.name,
            member_asn=member.asn,
            external=external.name,
            phys_link_name=phys_link.name,
            relationship=topo_link.relationship_for(member.asn),
        )
        self.speaker.add_peering(peering, relay)

    def _build_collector(self) -> None:
        if not self.config.with_collector:
            return
        self.collector = self.net.add_node(
            RouteCollector(
                self.net.sim, "collector",
                timers=self.config.collector_timers(),
            )
        )
        for asn, node in sorted(self._as_node.items()):
            if isinstance(node, BGPRouter):
                self._attach_collector(node)

    def _attach_collector(self, node: BGPRouter) -> Link:
        link = self.net.add_link(
            node, self.collector,
            latency=COLLECTOR_LATENCY, kind="collector",
            name=f"rc-{node.name}",
        )
        node.add_peer(
            link,
            policy=self._policy(None),
            timers=self.config.collector_timers(),
        )
        self.collector.add_peer(link)
        return link

    def _policy(self, relationship: Optional[Relationship]) -> PeerPolicy:
        """The policy for sessions toward a peer of ``relationship``
        (None: a route-collector feed, transit-all in every mode).

        One object per relationship, handed to every such session — at
        5000 ASes a private policy graph per session was 1.2 M of the
        2.1 M objects the collector had to walk.  Shared means
        read-only: to change one session's policy, replace it with a
        changed copy, as :meth:`set_export_prepend` does.
        """
        policy = self._policies.get(relationship)
        if policy is None:
            mode = "flat" if relationship is None else self.config.policy_mode
            try:
                template = POLICY_MODES[mode]
            except KeyError:
                raise ExperimentError(f"unknown policy mode: {mode!r}") from None
            policy = self._policies[relationship] = template(relationship)
        return policy

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @_full_collections_held()
    def start(self, *, settle: bool = True) -> "Experiment":
        """Start sessions, originate baseline prefixes, converge."""
        if not self._built:
            self.build()
        if self._started:
            raise ExperimentError("experiment already started")
        self._started = True
        for node in self._as_node.values():
            if isinstance(node, BGPRouter):
                node.start()
        if self.collector is not None:
            self.collector.start()
        if self.speaker is not None:
            self.speaker.start()
        if self.config.originate_all:
            for asn in self.topology.asns:
                self.announce(asn, self.as_prefix(asn))
        if settle:
            self.wait_converged()
        return self

    def close(self) -> None:
        """The end of the trial's lifetime: cut its network's reference
        cycles (:meth:`Network.close`), so refcounting frees the whole
        experiment once its last reference goes, with no collector
        pass.  Idempotent; nothing can run on the experiment afterwards.
        """
        if self.net is not None:
            self.net.close()

    def wait_converged(self, horizon: Optional[float] = None) -> float:
        """Run until no routing work remains; returns the virtual time.

        Raises :class:`~repro.eventsim.SimulationError` when the horizon
        is exceeded — i.e. the network genuinely does not converge.
        """
        self._require_built()
        budget = horizon if horizon is not None else self.config.horizon
        return self.net.sim.run_until_settled(
            horizon=self.net.sim.now + budget
        )

    @property
    def now(self) -> float:
        """Current virtual time of the experiment."""
        self._require_built()
        return self.net.sim.now

    def metrics_snapshot(self) -> Optional[dict]:
        """JSON-ready metrics payload (the bus's record counts), or None
        when metrics are disabled."""
        if not self.config.metrics or self.net is None:
            return None
        return records_snapshot(self.net.bus.counts)

    @property
    def spans(self):
        """The span tracker (None unless ``config.spans``)."""
        return self.net.spans if self.net is not None else None

    def spans_snapshot(self) -> Optional[list]:
        """All provenance spans as dicts, or None when spans are off."""
        tracker = self.spans
        return tracker.snapshot() if tracker is not None else None

    # ------------------------------------------------------------------
    # node / address accessors
    # ------------------------------------------------------------------
    def node(self, asn: int) -> Node:
        """The emulated device for one ASN."""
        try:
            return self._as_node[asn]
        except KeyError:
            raise ExperimentError(f"unknown AS: {asn}") from None

    def is_sdn(self, asn: int) -> bool:
        """True when the AS is a cluster member."""
        return asn in self.sdn_asns

    def as_prefix(self, asn: int) -> Prefix:
        """The /24 owned by an AS."""
        return self.allocator.as_prefix(asn)

    def as_nodes(self) -> List[Node]:
        """All AS devices, ASN-ordered."""
        return [self._as_node[asn] for asn in sorted(self._as_node)]

    def legacy_asns(self) -> List[int]:
        """ASNs running plain BGP."""
        return [a for a in self.topology.asns if a not in self.sdn_asns]

    def phys_link(self, a: int, b: int) -> Link:
        """The physical link between two ASes."""
        key = (min(a, b), max(a, b))
        try:
            return self._phys_link[key]
        except KeyError:
            raise ExperimentError(f"no link between AS{a} and AS{b}") from None

    def new_event_prefix(self) -> Prefix:
        """A fresh prefix from the event pool for announce experiments."""
        index = self._event_prefix_index
        if index >= EVENT_POOL_SIZE:
            raise ExperimentError("event prefix pool exhausted")
        self._event_prefix_index += 1
        network = EVENT_POOL.network + (index << (32 - EVENT_PREFIX_LEN))
        return Prefix(network, EVENT_PREFIX_LEN)

    # ------------------------------------------------------------------
    # the Mininet-BGP commands
    # ------------------------------------------------------------------
    def announce(self, asn: int, prefix: Optional[Prefix] = None) -> Prefix:
        """AS ``asn`` originates ``prefix`` (fresh event prefix if None)."""
        self._require_built()
        if prefix is None:
            prefix = self.new_event_prefix()
        node = self.node(asn)
        if isinstance(node, SDNSwitch):
            self.controller.originate(node.name, prefix)
        else:
            node.originate(prefix)
        return prefix

    def withdraw(self, asn: int, prefix: Prefix) -> None:
        """AS ``asn`` stops originating ``prefix``."""
        self._require_built()
        node = self.node(asn)
        if isinstance(node, SDNSwitch):
            self.controller.withdraw(node.name, prefix)
        else:
            node.withdraw(prefix)

    def fail_link(self, a: int, b: int) -> None:
        """Administratively fail the physical link between two ASes."""
        self.phys_link(a, b).fail()

    def restore_link(self, a: int, b: int) -> None:
        """Bring a failed inter-AS link back up."""
        self.phys_link(a, b).restore()

    def fail_node(self, asn: int) -> None:
        """Fail every physical link of one AS (node outage)."""
        for link in self.node(asn).links:
            if link.kind == "phys":
                link.fail()

    def set_export_prepend(self, asn: int, toward: int, count: int) -> None:
        """AS-path prepend ``asn`` x ``count`` on exports toward one peer.

        Only legacy BGP routers support per-session prepending (the
        cluster's advertisements are controller-composed).  Apply before
        :meth:`start` so every advertisement on the session carries it.
        """
        node = self.node(asn)
        if not isinstance(node, BGPRouter):
            raise ExperimentError(f"AS{asn} is not a legacy BGP router")
        link = self.phys_link(asn, toward)
        session = node.session_on(link)
        if session is None:
            raise ExperimentError(f"no session AS{asn}->AS{toward}")
        session.policy = session.policy.with_export_prepend(count)

    # ------------------------------------------------------------------
    # fault commands (the building blocks repro.faults schedules)
    # ------------------------------------------------------------------
    def degrade_link(
        self,
        a: int,
        b: int,
        *,
        latency: Optional[float] = None,
        loss: Optional[float] = None,
    ) -> Dict[str, float]:
        """Degrade the a<->b physical link's quality.

        Returns the previous value of each changed attribute so a
        degradation *window* can restore them afterwards.  Note the loss
        process drops any message, including BGP ones — the model has no
        TCP retransmit — so lossy windows can leave neighbors with stale
        routes until the next session event.
        """
        self._require_built()
        return self.net.set_link_quality(
            self.phys_link(a, b), latency=latency, loss=loss
        )

    def reset_session(self, asn: int, toward: int) -> None:
        """Administratively bounce the BGP session between two ASes.

        For a legacy AS this is ``clear ip bgp neighbor`` on its router;
        for a cluster member the session lives on the cluster speaker,
        so the speaker session of that peering is bounced instead.
        """
        self._require_built()
        link = self.phys_link(asn, toward)
        node = self.node(asn)
        if isinstance(node, SDNSwitch):
            if self.speaker is None:
                raise ExperimentError("no speaker to reset a session on")
            for link_id in sorted(self.speaker.peering_of):
                if self.speaker.peering_of[link_id].phys_link_name == link.name:
                    self.speaker.sessions[link_id].reset()
                    return
            raise ExperimentError(f"no peering AS{asn}->AS{toward}")
        session = node.session_on(link)
        if session is None:
            raise ExperimentError(f"no session AS{asn}->AS{toward}")
        session.reset()

    def crash_router(self, asn: int) -> None:
        """Power-fail an AS's device: every link drops, learned state is
        lost.  Pair with :meth:`restart_router` to model crash/recovery.

        Links fail first so peers see fast fallover; a legacy router then
        wipes its RIBs and BGP FIB entries (origination config survives),
        a member switch loses its entire flow table.
        """
        self._require_built()
        node = self.node(asn)
        for link in node.links:
            link.fail()
        if isinstance(node, SDNSwitch):
            node.flow_table.clear()
            self.net.bus.record("switch.crash", node.name)
        else:
            node.crash()

    def restart_router(self, asn: int) -> None:
        """Boot a crashed AS device and restore its links.

        Control and relay links come up before physical ones so the
        PortStatus/PeeringStatus notifications the restored physical
        links generate actually reach the controller and speaker.
        """
        self._require_built()
        node = self.node(asn)
        if isinstance(node, SDNSwitch):
            self.net.bus.record("switch.restart", node.name)
            if self.controller is not None:
                self.controller.member_rebooted(node.name)
        else:
            node.restart()
        order = {"control": 0, "relay": 1}
        for link in sorted(
            node.links, key=lambda l: (order.get(l.kind, 2), l.link_id)
        ):
            link.restore()

    def fail_controller(self) -> None:
        """Kill the IDR controller process (members keep forwarding)."""
        self._require_built()
        if self.controller is None:
            raise ExperimentError("no controller in a pure-BGP experiment")
        self.controller.fail()

    def recover_controller(self) -> None:
        """Restart the IDR controller; it resyncs and recomputes."""
        self._require_built()
        if self.controller is None:
            raise ExperimentError("no controller in a pure-BGP experiment")
        self.controller.recover()

    def partition_controller(self) -> None:
        """Partition the controller from the cluster BGP speaker."""
        self._require_built()
        if self.speaker is None:
            raise ExperimentError("no speaker in a pure-BGP experiment")
        self.speaker.partition()

    def heal_controller_partition(self) -> None:
        """Heal the controller-speaker partition and resynchronize."""
        self._require_built()
        if self.speaker is None:
            raise ExperimentError("no speaker in a pure-BGP experiment")
        self.speaker.heal_partition()

    # ------------------------------------------------------------------
    # dynamic topology changes (paper §2: "dynamically changing the
    # topology and verifying the effects of changes")
    # ------------------------------------------------------------------
    def connect(
        self,
        a: int,
        b: int,
        *,
        relationship: Relationship = Relationship.FLAT,
        latency: float = 0.01,
    ) -> Link:
        """Add a new inter-AS link at runtime and bring it into service.

        Works across all three boundary cases: legacy↔legacy (two new
        BGP sessions start connecting), member↔legacy (a new speaker
        peering with its relay), and member↔member (a new intra-cluster
        edge; the controller recomputes over the denser switch graph).
        """
        self._require_built()
        topo_link = self.topology.add_link(
            a, b, relationship=relationship, latency=latency
        )
        link = self._wire_topo_link(topo_link)
        if self._started:
            self._activate_link(a, b, link)
        return link

    def _activate_link(self, a: int, b: int, link: Link) -> None:
        for asn in (a, b):
            node = self._as_node[asn]
            if isinstance(node, BGPRouter):
                session = node.session_on(link)
                if session is not None:
                    session.start()
        a_sdn, b_sdn = a in self.sdn_asns, b in self.sdn_asns
        if a_sdn and b_sdn:
            # New intra-cluster edge: every route may improve.
            self.controller.mark_dirty(self.controller.known_prefixes())
        elif a_sdn or b_sdn:
            member = self._as_node[a if a_sdn else b]
            for relay_link in member.links:
                if relay_link.kind != "relay":
                    continue
                session = self.speaker.sessions.get(relay_link.link_id)
                if session is not None:
                    session.start()

    def add_as(
        self,
        asn: int,
        *,
        sdn: bool = False,
        links: Sequence = (),
        name: Optional[str] = None,
    ) -> Node:
        """Add a whole new AS at runtime and connect it.

        ``links`` is a sequence of neighbor ASNs, or ``(neighbor,
        relationship)`` pairs.  The new AS gets an address, a collector
        peering (legacy only), its links (via :meth:`connect`), and —
        when the experiment is running with ``originate_all`` — its /24.

        Adding the *first* SDN member at runtime is not supported: the
        cluster core (controller + speaker) is created at build time.
        """
        self._require_built()
        if sdn and self.controller is None:
            raise ExperimentError(
                "cannot add an SDN member at runtime without a cluster "
                "core; include at least one SDN member at build time"
            )
        spec = self.topology.add_as(asn, name=name or "")
        if sdn:
            self.sdn_asns.add(asn)
        node = self._make_as_node(spec)
        if self.collector is not None and isinstance(node, BGPRouter):
            collector_link = self._attach_collector(node)
            if self._started:
                node.session_on(collector_link).start()
                self.collector.session_on(collector_link).start()
        for entry in links:
            neighbor, relationship = (
                entry if isinstance(entry, tuple)
                else (entry, Relationship.FLAT)
            )
            self.connect(asn, neighbor, relationship=relationship)
        if self._started and self.config.originate_all:
            self.announce(asn, self.as_prefix(asn))
        return node

    # ------------------------------------------------------------------
    # hosts & data-plane checks
    # ------------------------------------------------------------------
    def add_host(self, asn: int, name: Optional[str] = None) -> Host:
        """Attach a monitoring host inside AS ``asn``'s prefix."""
        self._require_built()
        as_node = self.node(asn)
        address = self.allocator.host_address(asn)
        host_name = name or f"h{asn}-{len(self.hosts.get(asn, [])) + 1}"
        host = Host(self.net.sim, host_name)
        host.address = address
        self.net.add_node(host)
        stub = self.net.add_link(
            host, as_node,
            latency=HOST_LATENCY, kind="host",
            name=f"{host_name}--{as_node.name}",
        )
        host.fib.install(
            FibEntry(Prefix.parse("0.0.0.0/0"), stub, via=as_node.name,
                     source="static")
        )
        host_route = Prefix.of(address, 32)
        if isinstance(as_node, SDNSwitch):
            as_node.flow_table.install(
                FlowRule(
                    match=host_route,
                    action=FlowAction.output(stub),
                    priority=HOST_RULE_PRIORITY,
                    cookie="static-host",
                )
            )
        else:
            as_node.fib.install(
                FibEntry(host_route, stub, via=host_name, source="static")
            )
        self.hosts.setdefault(asn, []).append(host)
        return host

    def reachable(self, src_asn: int, dst_asn: int) -> PathTrace:
        """Instant data-plane walk from AS src to AS dst's address."""
        dst = self.node(dst_asn)
        if dst.address is None:
            raise ExperimentError(f"AS{dst_asn} has no address")
        return self.net.trace_path(self.node(src_asn), dst.address)

    def connectivity_matrix(self) -> Dict[Tuple[int, int], PathTrace]:
        """All ordered AS pairs -> data-plane walk results."""
        result: Dict[Tuple[int, int], PathTrace] = {}
        for src in sorted(self._as_node):
            for dst in sorted(self._as_node):
                if src != dst:
                    result[(src, dst)] = self.reachable(src, dst)
        return result

    def all_reachable(self) -> bool:
        """True when every AS can reach every other AS's address."""
        return all(t.reached for t in self.connectivity_matrix().values())

    def ping(
        self, src_asn: int, dst_asn: int, *, timeout: float = 2.0
    ) -> Optional[float]:
        """Send one real echo request; returns RTT or None on loss.

        Advances virtual time by up to ``timeout`` seconds.
        """
        src, dst = self.node(src_asn), self.node(dst_asn)
        if src.address is None or dst.address is None:
            raise ExperimentError("both ASes need addresses to ping")
        seq = 1_000_000 + self.net.sim.events_processed
        sent_at = self.net.sim.now
        src.send_packet(
            Packet(src=src.address, dst=dst.address, proto=PING_PROTO, seq=seq)
        )
        self.net.sim.run(until=sent_at + timeout)
        arrived = src.echo_replies_received.get(seq)
        return (arrived - sent_at) if arrived is not None else None

    # ------------------------------------------------------------------
    def _require_built(self) -> None:
        if not self._built:
            raise ExperimentError("call build() first")

    def __repr__(self) -> str:
        state = "started" if self._started else ("built" if self._built else "new")
        return (
            f"<Experiment {self.name!r} ases={len(self.topology)} "
            f"sdn={len(self.sdn_asns)} {state}>"
        )
