"""The per-AS BGP router (the framework's Quagga bgpd stand-in).

One :class:`BGPRouter` emulates one AS's border router ("to isolate the
effects of inter-domain from intra-domain routing every AS is emulated by
a single network device", paper §3).  It owns:

- one :class:`~repro.bgp.session.BGPSession` per peering link, each
  holding its peer's Adj-RIB-In / Adj-RIB-Out,
- the Loc-RIB,
- the decision process, FIB installation, and UPDATE generation,
- a serialized update-processing queue with a small per-update delay,
  modelling router CPU the way a real bgpd process serializes work.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..eventsim import Simulator
from ..net.addr import Prefix
from ..obs.spans import activation, last_span_activation
from ..net.dataplane import FibEntry
from ..net.link import Link
from ..net.node import Node
from .attrs import AsPath, Origin, PathAttributes
from .damping import DampingConfig, RouteDamper
from .decision import best_route, rank_routes, route_sort_key, verify_loc_rib
from .messages import BGPMessage, BGPUpdate
from .policy import PeerPolicy
from .rib import LocRib, Route, RouteIndex
from .session import BGPSession, BGPTimers

__all__ = ["BGPRouter"]

#: :meth:`BGPRouter._incremental_best`'s "scan every candidate" answer.
_RESCAN = object()


class BGPRouter(Node):
    """A single-AS eBGP speaker with full RIB machinery."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        asn: int,
        timers: Optional[BGPTimers] = None,
        damping: Optional[DampingConfig] = None,
    ) -> None:
        super().__init__(sim, name)
        if asn <= 0:
            raise ValueError(f"ASN must be positive: {asn!r}")
        self.asn = asn
        self.timers = timers if timers is not None else BGPTimers()
        #: prefix-major view of every Adj-RIB-In, kept in sync by the
        #: tables; :meth:`candidates` reads it, :meth:`verify_decisions`
        #: checks it against a full scan (docs/scaling.md).
        self._index = RouteIndex()
        #: optional RFC 2439 route-flap damping; keys are (link_id, prefix).
        self.damper: Optional[RouteDamper] = (
            RouteDamper(sim, damping, self._on_damping_reuse)
            if damping is not None
            else None
        )
        self.loc_rib = LocRib()
        self.originated: Dict[Prefix, PathAttributes] = {}
        self.sessions: Dict[int, BGPSession] = {}  # link_id -> session
        #: received UPDATEs awaiting processing: made by the first one
        #: and dropped when drained, so a router at rest holds no deque
        #: (760 bytes each, one per router).
        self._update_queue: Optional[deque] = None
        self._processing = False
        # Bound once: every received UPDATE schedules a processing event.
        self._process_callback = self._process_one
        self._process_label = f"{name}:proc"
        self._proc_rng = sim.rng("bgp.proc")
        #: update groups: prefix -> (Loc-RIB best, {(export policy, local
        #: ASN): exported attributes or None}).  Sessions sharing a policy
        #: and an ASN export the same thing, so each pair evaluates once
        #: per best; dropped when the best changes (docs/scaling.md).
        self._export_memo: Dict[
            Prefix,
            Tuple[Route, Dict[Tuple[PeerPolicy, int], Optional[PathAttributes]]],
        ] = {}
        self.updates_processed = 0
        self.decisions_run = 0

    # ------------------------------------------------------------------
    # peering setup
    # ------------------------------------------------------------------
    def add_peer(
        self,
        link: Link,
        *,
        policy: Optional[PeerPolicy] = None,
        timers: Optional[BGPTimers] = None,
        local_asn: Optional[int] = None,
    ) -> BGPSession:
        """Configure an eBGP session over ``link`` (must attach to us)."""
        link.other(self)  # raises ValueError if we're not an endpoint
        if link.link_id in self.sessions:
            raise ValueError(f"session already configured on {link.name}")
        session = BGPSession(
            self, link, policy=policy, timers=timers, local_asn=local_asn
        )
        self.sessions[link.link_id] = session
        return session

    def start(self) -> None:
        """Start all configured sessions connecting."""
        for session in self.sessions.values():
            session.start()

    def close(self) -> None:
        """Close every session and drop the callbacks bound to this
        router: the processing callback and the damper's reuse hook."""
        for session in self.sessions.values():
            session.close()
        self._process_callback = self.damper = None
        super().close()

    def session_on(self, link: Link) -> Optional[BGPSession]:
        """The session configured on one link, if any."""
        return self.sessions.get(link.link_id)

    def established_sessions(self) -> List[BGPSession]:
        """Sessions currently in ESTABLISHED state."""
        return [s for s in self.sessions.values() if s.established]

    # ------------------------------------------------------------------
    # node hooks
    # ------------------------------------------------------------------
    def handle_message(self, link: Link, message) -> None:
        """Control-plane dispatch for one delivered message."""
        if isinstance(message, BGPMessage):
            session = self.sessions.get(link.link_id)
            if session is not None:
                session.handle_message(message)

    def link_state_changed(self, link: Link) -> None:
        """React to an attached link flipping up/down."""
        session = self.sessions.get(link.link_id)
        if session is not None:
            session.link_state_changed()

    # ------------------------------------------------------------------
    # origination (the framework's "announce prefix" command)
    # ------------------------------------------------------------------
    def originate(self, prefix: Prefix, *, med: int = 0) -> None:
        """Originate ``prefix`` from this AS and advertise per policy."""
        self.originated[prefix] = PathAttributes(
            as_path=AsPath(), origin=Origin.IGP, med=med,
        )
        self.add_local_prefix(prefix)
        self.bus.record("bgp.originate", self.name, prefix=str(prefix))
        # Provenance: the origination span (a root cause when injected
        # from scenario code) covers the local decision and its fallout.
        with last_span_activation(self.bus.obs):
            self._run_decision(prefix)

    def withdraw(self, prefix: Prefix) -> None:
        """Stop originating ``prefix`` (the paper's withdrawal event)."""
        if prefix not in self.originated:
            raise KeyError(f"{self.name} does not originate {prefix}")
        del self.originated[prefix]
        self.remove_local_prefix(prefix)
        self.bus.record("bgp.withdraw", self.name, prefix=str(prefix))
        with last_span_activation(self.bus.obs):
            self._run_decision(prefix)

    # ------------------------------------------------------------------
    # session callbacks
    # ------------------------------------------------------------------
    def session_up(self, session: BGPSession) -> None:
        """Session reached ESTABLISHED: reset RIBs and resync."""
        session.reset_tables(self._index)
        self.bus.record(
            "bgp.session.up", self.name,
            peer=session.peer_name, peer_asn=session.peer_asn,
        )
        obs = self.bus.obs
        if obs is not None and obs.current is None:
            # Timer-driven establishment (initial bring-up, re-establish
            # after repair): the session event is itself the root cause
            # of the resync traffic.
            ctx = obs.emit_root(
                "bgp.session.up", self.name, peer=session.peer_name
            )
            with activation(obs, ctx):
                session.resync()
        else:
            session.resync()

    def session_down(self, session: BGPSession, *, reason: str = "") -> None:
        """Session lost: flush per-peer state, re-decide."""
        if self.damper is not None:
            self.damper.clear_peer(session.link.link_id)
        affected = session.clear_tables()
        self.bus.record(
            "bgp.session.down", self.name,
            peer=session.link.other(self).name, reason=reason,
        )
        obs = self.bus.obs
        if obs is not None and obs.current is None:
            # Session loss with no surrounding cause (hold-timer expiry,
            # injected session reset) starts its own causal tree; losses
            # inside a link-down or crash context inherit that root.
            ctx = obs.emit_root(
                "bgp.session.down", self.name,
                peer=session.link.other(self).name, reason=reason,
            )
            with activation(obs, ctx):
                for prefix in affected:
                    self._run_decision(prefix)
        else:
            for prefix in affected:
                self._run_decision(prefix)

    # ------------------------------------------------------------------
    # crash / restart (fault-injection semantics)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Power-fail the router: sessions drop and all learned state is lost.

        The fault layer fails the attached links first, so peers see fast
        fallover and the sessions here are usually already IDLE; stopping
        them again covers slow-detection timer configurations.  Learned
        RIB state and BGP-derived FIB entries are wiped, but
        ``originated`` survives — origination is configuration, not
        protocol state — and is re-announced by :meth:`restart`.
        """
        obs = self.bus.obs
        ctx = obs.emit_root("bgp.crash", self.name) if obs is not None else None
        with activation(obs, ctx):
            for session in self.sessions.values():
                session.stop(notify_peer=False, reason="crash")
            self._update_queue = None
            self._processing = False
            self._export_memo.clear()
            for link_id, session in self.sessions.items():
                session.clear_tables()
                if self.damper is not None:
                    self.damper.clear_peer(link_id)
            lost = 0
            for prefix in list(self.loc_rib.prefixes()):
                if self.loc_rib.remove(prefix):
                    lost += 1
            for entry in [
                e for e in list(self.fib) if e.source.startswith("bgp")
            ]:
                if self.fib.remove(entry.prefix):
                    self.bus.record(
                        "fib.change", self.name, prefix=str(entry.prefix),
                        via=None,
                    )
            self.bus.record("bgp.crash", self.name, lost_routes=lost)

    def restart(self) -> None:
        """Boot after :meth:`crash`: re-install configured originations.

        Re-running the decision process for every originated prefix puts
        the local routes back into Loc-RIB/FIB; the outward re-announce
        happens via session resync once links are restored and sessions
        re-establish (the fault layer restores links after calling this).
        """
        self.bus.record("bgp.restart", self.name)
        obs = self.bus.obs
        ctx = (
            obs.emit_root("bgp.restart", self.name) if obs is not None else None
        )
        with activation(obs, ctx):
            for prefix in sorted(self.originated):
                self._run_decision(prefix)

    # ------------------------------------------------------------------
    # update processing (serialized, with CPU delay)
    # ------------------------------------------------------------------
    def enqueue_update(self, session: BGPSession, update: BGPUpdate) -> None:
        """Queue a received UPDATE for serialized processing."""
        self.bus.record_lazy(
            "bgp.update.rx", self.name,
            lambda: {
                "peer": session.link.other(self).name,
                "announced": update.rendered()[0],
                "withdrawn": update.rendered()[1],
                "update_id": update.update_id,
            },
        )
        # Provenance: queue entries carry the rx span's context (the
        # record above) so deferred processing re-enters it.
        obs = self.bus.obs
        ctx = obs.last_ctx if obs is not None else None
        queue = self._update_queue
        if queue is None:
            queue = self._update_queue = deque()
        queue.append((session, update, ctx))
        self._schedule_processing()

    def _schedule_processing(self) -> None:
        if self._processing or not self._update_queue:
            return
        self._processing = True
        timers = self.timers
        delay = self._proc_rng.uniform(
            timers.proc_delay_min, timers.proc_delay_max
        )
        self.sim.schedule(
            delay, self._process_callback, label=self._process_label
        )

    def _process_one(self) -> None:
        self._processing = False
        queue = self._update_queue
        if not queue:
            return
        session, update, ctx = queue.popleft()
        if not queue:
            self._update_queue = None
        if session.established:
            with activation(self.bus.obs, ctx):
                self._apply_update(session, update)
        self._schedule_processing()

    def _apply_update(self, session: BGPSession, update: BGPUpdate) -> None:
        self.updates_processed += 1
        rib_in = session.rib_in
        link_id = session.link.link_id
        affected: List[Prefix] = []
        for prefix in update.withdrawn:
            if rib_in.withdraw(prefix):
                self._record_flap(link_id, prefix, "withdrawal")
                affected.append(prefix)
        for prefix, attrs in update.announced:
            imported = self._import_route(session, attrs)
            if imported is None:
                # Rejected: an implicit withdrawal if we previously held it.
                if rib_in.withdraw(prefix):
                    self._record_flap(link_id, prefix, "withdrawal")
                    affected.append(prefix)
                continue
            route = Route(
                prefix=prefix,
                attrs=imported,
                peer_asn=session.peer_asn,
                peer_name=session.peer_name,
                learned_at=self.sim.now,
                link_id=link_id,
            )
            had_before = rib_in.get(prefix) is not None
            if rib_in.update(route):
                if had_before:
                    self._record_flap(link_id, prefix, "attribute_change")
                affected.append(prefix)
        # One UPDATE may touch a prefix twice (withdraw + re-announce);
        # every table change is already applied, so one best-path run
        # per prefix, in first-touch order, decides the same.
        for prefix in dict.fromkeys(affected):
            self._run_decision(prefix, link_id)

    # ------------------------------------------------------------------
    # route-flap damping hooks (RFC 2439)
    # ------------------------------------------------------------------
    def _record_flap(self, link_id: int, prefix: Prefix, kind: str) -> None:
        if self.damper is None:
            return
        suppressed = self.damper.record_flap((link_id, prefix), kind=kind)
        if suppressed:
            self.bus.record(
                "bgp.damping.suppress", self.name,
                prefix=str(prefix), link_id=link_id,
                penalty=round(self.damper.penalty_of((link_id, prefix)), 1),
            )

    def _on_damping_reuse(self, key) -> None:
        link_id, prefix = key
        self.bus.record(
            "bgp.damping.reuse", self.name,
            prefix=str(prefix), link_id=link_id,
        )
        self._run_decision(prefix)

    def _import_route(
        self, session: BGPSession, attrs: PathAttributes
    ) -> Optional[PathAttributes]:
        """Loop check + import policy; None means reject."""
        if attrs.as_path.contains(self.asn):
            return None
        return session.policy.import_attrs(attrs)

    # ------------------------------------------------------------------
    # decision process + FIB + advertisement scheduling
    # ------------------------------------------------------------------
    def _scan_candidates(self, prefix: Prefix) -> List[Route]:
        """Reference candidate enumeration: probe every session's table.

        O(sessions) per call; the oracle :meth:`verify_decisions` holds
        :meth:`candidates` to, because it cannot be wrong about what
        the tables hold.
        """
        routes: List[Route] = []
        local = self.originated.get(prefix)
        if local is not None:
            routes.append(Route(prefix=prefix, attrs=local, peer_asn=0,
                                peer_name=self.name))
        for session in self.sessions.values():
            if not session.established:
                continue
            if self.damper is not None and self.damper.is_suppressed(
                (session.link.link_id, prefix)
            ):
                continue
            route = session.rib_in.get(prefix)
            if route is not None:
                routes.append(route)
        return routes

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All usable candidate routes for one prefix, via the index.

        Yields exactly what :meth:`_scan_candidates` would: sessions are
        registered in link-creation order and link ids are globally
        monotone, so iterating the index entries in ascending link-id
        order reproduces the session-scan order (and the winner is
        order-independent anyway — ``route_sort_key`` is a strict total
        order).
        """
        routes: List[Route] = []
        local = self.originated.get(prefix)
        if local is not None:
            routes.append(Route(prefix=prefix, attrs=local, peer_asn=0,
                                peer_name=self.name))
        entry = self._index.get(prefix)
        for link_id in sorted(entry):
            session = self.sessions.get(link_id)
            if session is None or not session.established:
                continue
            if self.damper is not None and self.damper.is_suppressed(
                (link_id, prefix)
            ):
                continue
            routes.append(entry[link_id])
        return routes

    def known_prefixes(self) -> List[Prefix]:
        """Every prefix this router holds any state for, sorted."""
        seen = set(self.loc_rib.prefixes())
        for session in self.sessions.values():
            seen.update(session.rib_in.prefixes())
        seen.update(self.originated)
        return sorted(seen)

    def verify_decisions(self) -> List[str]:
        """Differential oracle: compare Loc-RIB against a full rescan.

        Re-derives the best route for every known prefix with the
        full-scan enumeration and reports any disagreement with the
        incrementally maintained Loc-RIB.  Empty list = identical.
        """
        return verify_loc_rib(
            self.loc_rib,
            self._scan_candidates,
            self.known_prefixes(),
        )

    def _run_decision(self, prefix: Prefix, link_id: int = -1) -> None:
        """Re-decide ``prefix``.  ``link_id`` names the one Adj-RIB-In
        whose route for it changed (-1: origination, withdrawal, session
        loss, damping reuse, restart — rescan every candidate)."""
        self.decisions_run += 1
        old = self.loc_rib.get(prefix)
        best = self._incremental_best(prefix, link_id, old)
        if best is _RESCAN:
            best = best_route(self.candidates(prefix))
        if best is None:
            if self.loc_rib.remove(prefix):
                self._on_best_changed(prefix, old, None)
        else:
            if self.loc_rib.set_best(best):
                self._on_best_changed(prefix, old, best)

    def _incremental_best(
        self, prefix: Prefix, link_id: int, old: Optional[Route]
    ):
        """The new best when only link ``link_id``'s route changed, or
        ``_RESCAN`` when that is not enough to decide.

        Every other candidate is unchanged, and ``old`` beat all of them,
        so if ``old`` still stands — local, or still the object its
        link's table holds — the winner is ``old`` or that link's new
        route, whichever sorts first; a withdrawal there changes
        nothing.  A change to the best's own link fails the "still
        held" test (its table now holds another route, or none), and it,
        a damper (``is_suppressed`` decays penalties as it reads them)
        and an exact key tie (which the scan breaks by link order)
        rescan.
        """
        if link_id < 0 or self.damper is not None:
            return _RESCAN
        entry = self._index.get(prefix)
        if (
            old is not None
            and not old.is_local
            and entry.get(old.link_id) is not old
        ):
            return _RESCAN
        new = entry.get(link_id)
        if new is None or old is None:
            return old if new is None else new
        new_key = route_sort_key(new)
        old_key = route_sort_key(old)
        if new_key < old_key:
            return new
        if old_key < new_key:
            return old
        return _RESCAN

    def _on_best_changed(
        self, prefix: Prefix, old: Optional[Route], new: Optional[Route]
    ) -> None:
        self.bus.record_lazy(
            "bgp.decision", self.name,
            lambda: {
                "prefix": str(prefix),
                "old": str(old.attrs.as_path) if old else None,
                "new": str(new.attrs.as_path) if new else None,
            },
        )
        self._export_memo.pop(prefix, None)
        # Provenance: the FIB change and the advertisements this decision
        # schedules are consequences of the decision span just recorded.
        # Every session is told, even one that will send nothing: its
        # output run still draws an MRAI period (BGPSession._flush).
        with last_span_activation(self.bus.obs):
            self._install_fib(prefix, new)
            for session in self.sessions.values():
                session.schedule_route(prefix)

    def _install_fib(self, prefix: Prefix, route: Optional[Route]) -> None:
        if route is None:
            if self.fib.remove(prefix):
                self.bus.record_lazy(
                    "fib.change", self.name,
                    lambda: {"prefix": str(prefix), "via": None},
                )
            return
        if route.is_local:
            entry = FibEntry(prefix, None, via="local", source="bgp.local")
        else:
            session = self.session_of(route)
            if session is None:
                return
            entry = FibEntry(
                prefix, session.link, via=route.peer_name, source="bgp",
            )
        if self.fib.install(entry):
            self.bus.record_lazy(
                "fib.change", self.name,
                lambda: {"prefix": str(prefix), "via": entry.via},
            )

    def session_of(self, route: Route) -> Optional[BGPSession]:
        """The established session a learned route came in on, if any."""
        session = self.sessions.get(route.link_id)
        if (
            session is not None
            and session.established
            and session.peer_asn == route.peer_asn
            and session.peer_name == route.peer_name
        ):
            return session
        return None

    # ------------------------------------------------------------------
    # outbound route generation (called by sessions at send time)
    # ------------------------------------------------------------------
    def _export_attrs(
        self, session: BGPSession, prefix: Prefix
    ) -> Optional[PathAttributes]:
        """What ``session`` should advertise for ``prefix`` now, or None
        (the session host's one export question; docs/architecture.md)."""
        memo = self._export_memo.get(prefix)
        if memo is None:
            best = self.loc_rib.get(prefix)
            if best is None:
                return None
            memo = self._export_memo[prefix] = (best, {})
        best, group = memo
        # Do not advertise a route back over the session it came from
        # (split horizon; the peer would loop-reject it anyway, this just
        # reduces message noise like most real implementations).
        if (
            not best.is_local
            and best.peer_asn == session.peer_asn
            and best.peer_name == session.peer_name
        ):
            return None
        # Everything below depends only on (policy, local ASN, best): one
        # evaluation per update group, shared by its sessions.
        key = (session.policy, session.local_asn)
        if key in group:
            return group[key]
        learned = (
            None if best.is_local
            else self.sessions[best.link_id].policy.relationship
        )
        exported = session.policy.export_attrs(
            best.attrs, learned, session.local_asn
        )
        group[key] = exported
        return exported

    # ------------------------------------------------------------------
    # diagnostics ("show ip bgp")
    # ------------------------------------------------------------------
    def rib_dump(self, prefix: Optional[Prefix] = None) -> List[str]:
        """Human-readable dump of candidates, best-first."""
        lines: List[str] = []
        prefixes = [prefix] if prefix is not None else self.known_prefixes()
        for pfx in prefixes:
            ranked = rank_routes(self.candidates(pfx))
            for i, route in enumerate(ranked):
                marker = "*>" if i == 0 else "* "
                src = "local" if route.is_local else f"AS{route.peer_asn}"
                lines.append(
                    f"{marker} {pfx} via {src} path [{route.attrs.as_path}] "
                    f"lp={route.attrs.local_pref}"
                )
        return lines
