"""eBGP session: finite state machine and MRAI pacing.

A session binds one local router to one peer over one point-to-point
link (the paper's one-router-per-AS abstraction).  The two behaviours
that matter for convergence dynamics live here:

- **MRAI** (MinRouteAdvertisementInterval, RFC 4271 §9.2.1.1): route
  changes toward a peer are batched; at most one UPDATE per (jittered)
  MRAI period goes out.  This is what serializes BGP path exploration and
  makes clique withdrawal convergence scale with the number of exploring
  ASes.  Per RFC default, withdrawals are *not* rate-limited (Quagga-like
  behaviour is available via ``BGPTimers.withdrawal_rate_limited``).
- **Fast fallover**: when the underlying link goes down the session
  drops immediately (Quagga's ``bgp fast-external-fallover``).  There
  are no periodic keepalives and no hold timer: a link or peer failure
  is always signalled, never detected by silence.

A session asks its host — a :class:`~repro.bgp.router.BGPRouter` or the
cluster BGP speaker — one question, ``host._export_attrs(session,
prefix)``: the attributes to advertise for ``prefix`` now, or None.  An
output run sends the prefix when the answer differs from what the
Adj-RIB-Out holds.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..eventsim import Event
from ..net.addr import Prefix
from ..net.link import Link
from .messages import BGPKeepalive, BGPMessage, BGPNotification, BGPOpen, BGPUpdate
from .policy import PeerPolicy, transit_all_policy
from .rib import NO_RIB_IN, NO_RIB_OUT, AdjRibIn, AdjRibOut, RouteIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .router import BGPRouter

__all__ = ["SessionState", "BGPTimers", "BGPSession"]

#: wait from start to the first OPEN, and after a drop before the next
#: attempt (seconds).
CONNECT_DELAY = 0.1
RECONNECT_DELAY = 1.0


class SessionState(enum.Enum):
    IDLE = "idle"
    CONNECT = "connect"
    OPEN_SENT = "open_sent"
    OPEN_CONFIRM = "open_confirm"
    ESTABLISHED = "established"


_ESTABLISHED = SessionState.ESTABLISHED


@dataclass
class BGPTimers:
    """The timer knobs a run sets for a speaker's sessions.

    Defaults follow common Quagga deployments; experiments override
    ``mrai`` and friends explicitly so results are self-describing.
    Connect and reconnect waits are fixed (``CONNECT_DELAY``,
    ``RECONNECT_DELAY``), and link down always drops a session.
    """

    mrai: float = 30.0
    #: RFC 4271 recommends jittering timers to 75-100% of nominal.
    mrai_jitter: float = 0.25
    withdrawal_rate_limited: bool = False
    #: per-UPDATE processing delay range at the receiver (models CPU).
    proc_delay_min: float = 0.005
    proc_delay_max: float = 0.02
    #: output batching window: route changes arriving within this window
    #: of each other leave in ONE UPDATE (a real bgpd generates updates
    #: in periodic output runs, so near-simultaneous decision changes
    #: never burn separate MRAI rounds).
    output_delay: float = 0.01


class BGPSession:
    """One eBGP session over one link, and its peer's Adj-RIBs.

    Slotted, and its MRAI and connect waits are bare kernel events, not
    :class:`~repro.eventsim.Timer` objects: a 5000-AS storm holds about
    50k sessions (docs/scaling.md, "Set-up cost").
    """

    __slots__ = (
        "router", "link", "local_asn", "policy", "timers", "state",
        "peer_asn", "peer_name", "updates_sent", "updates_received",
        "rib_in", "rib_out",
        "_sim", "_mrai_event", "_connect_event", "_mrai_label",
        "_flush_label", "_dirty",
        "_pending_obs", "_flush_event", "_flush_callback", "_output_lane",
        "_mrai_rng", "_open_received",
    )

    def __init__(
        self,
        router: "BGPRouter",
        link: Link,
        *,
        policy: Optional[PeerPolicy] = None,
        timers: Optional[BGPTimers] = None,
        local_asn: Optional[int] = None,
    ) -> None:
        self.router = router
        self.link = link
        #: AS number this end speaks as.  Normally the router's own ASN;
        #: the cluster BGP speaker overrides it per session so external
        #: peers see the cluster member's AS identity (paper §2).
        self.local_asn = local_asn if local_asn is not None else router.asn
        self.policy = policy if policy is not None else transit_all_policy()
        self.timers = timers if timers is not None else router.timers
        self.state = SessionState.IDLE
        #: peer's AS, learned from its OPEN (0 until then).
        self.peer_asn = 0
        self.peer_name = ""
        self.updates_sent = 0
        self.updates_received = 0
        #: the peer's Adj-RIB-In and Adj-RIB-Out: made by the host's
        #: ``session_up`` (:meth:`reset_tables`), shared empty read-only
        #: ones until then.
        self.rib_in: AdjRibIn = NO_RIB_IN
        self.rib_out: AdjRibOut = NO_RIB_OUT
        sim = router.sim
        self._sim = sim
        # Bound once, and shared by the output lane and the MRAI expiry:
        # every decision schedules an output run per session.
        self._flush_callback = self._flush
        #: the armed MRAI expiry and connect wait: each one kernel event,
        #: armed with ``sim.schedule``, or None once it fired or was
        #: disarmed with ``sim.cancel``.
        self._mrai_event: Optional[Event] = None
        self._connect_event: Optional[Event] = None
        # Labels are per router, so its sessions share one copy of each.
        name = router.name
        self._mrai_label = sys.intern(f"{name}:mrai")
        self._flush_label = sys.intern(f"{name}:flush")
        #: prefixes awaiting the next output run, a dict used as an
        #: ordered set (the run sorts what it sends, so the order changes
        #: nothing).  Made by the first change after a run and handed to
        #: the run, so a session at rest holds none: a set kept for the
        #: session's life took 216 bytes, and a dict emptied in place
        #: went back into the youngest generation on every first insert
        #: after a full collection untracked it.
        self._dirty: Optional[Dict[Prefix, None]] = None
        #: provenance of pending advertisements: prefix -> (context, time
        #: it first went dirty).  First cause wins; consumed at send time
        #: to parent the tx span and measure the pacing wait, and dropped
        #: by an output run that did not send the prefix.  Made by the
        #: first write, which only a span tracker makes.
        self._pending_obs: Optional[dict] = None
        self._flush_event = None
        #: every output run goes the same fixed delay ahead, so on that
        #: delay's FIFO lane: same event, same pop order, no heap push
        #: or pop (most of a storm's events are output runs).
        self._output_lane = sim.fifo_lane(self.timers.output_delay)
        self._mrai_rng = sim.rng("bgp.mrai")
        self._open_received = False

    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        """True in the ESTABLISHED state."""
        return self.state is SessionState.ESTABLISHED

    @property
    def mrai_expires_at(self) -> Optional[float]:
        """Virtual time of the armed MRAI expiry, or None."""
        armed = self._mrai_event
        return None if armed is None else armed.time

    def reset_tables(self, index: RouteIndex) -> None:
        """Give the session fresh Adj-RIBs (its host's ``session_up``).

        The replaced Adj-RIB-In's entries leave ``index``, the host's
        prefix-major view of every Adj-RIB-In, with it.
        """
        if self.rib_in is not NO_RIB_IN:
            self.rib_in.clear()
        self.rib_in = AdjRibIn(
            self.peer_asn, self.peer_name,
            link_id=self.link.link_id, index=index,
        )
        self.rib_out = AdjRibOut(self.peer_asn, self.peer_name)

    def clear_tables(self) -> list:
        """Empty both Adj-RIBs (session loss, crash); returns the
        prefixes the Adj-RIB-In held."""
        if self.rib_in is NO_RIB_IN:
            return []
        self.rib_out.clear()
        return self.rib_in.clear()

    def __repr__(self) -> str:
        return (
            f"<BGPSession {self.router.name}->"
            f"{self.link.other(self.router).name} {self.state.value}>"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, delay: Optional[float] = None) -> None:
        """Begin connecting (Idle → Connect → OpenSent ...)."""
        if self.state is not SessionState.IDLE:
            return
        if not self.link.up:
            return
        self.state = SessionState.CONNECT
        self._open_received = False
        # Armed once per bring-up, so its label is made here.
        self._connect_event = self._sim.schedule(
            CONNECT_DELAY if delay is None else delay,
            self._send_open,
            label=sys.intern(f"{self.router.name}:connect"),
        )

    def stop(self, *, notify_peer: bool = True, reason: str = "admin") -> None:
        """Tear the session down and flush per-peer state."""
        if notify_peer and self.state is not SessionState.IDLE and self.link.up:
            self._send(BGPNotification(sender_asn=self.local_asn, code=reason))
        self._drop(reason)

    def reset(self, *, reason: str = "admin_reset") -> None:
        """Administratively bounce the session (``clear ip bgp neighbor``).

        Sends a NOTIFICATION so the peer drops its side too, then
        reconnects after ``RECONNECT_DELAY``; the peer reconnects on its
        own schedule when it processes the notification.
        """
        self.stop(notify_peer=True, reason=reason)
        self.start(delay=RECONNECT_DELAY)

    def close(self) -> None:
        """Drop the session's edges into the trial graph (its router's
        :meth:`~repro.bgp.router.BGPRouter.close` calls it): router,
        link, armed events, output lane and the bound flush callback,
        which the MRAI expiry shares."""
        self.router = self.link = None
        self._mrai_event = self._connect_event = self._flush_event = None
        self._flush_callback = self._output_lane = None

    def link_state_changed(self) -> None:
        """Called by the router when the session's link flips state:
        down drops the session at once (fast fallover), up reconnects
        after ``RECONNECT_DELAY``."""
        if not self.link.up:
            self._drop("link_down")
            return
        if self.state is SessionState.IDLE:
            self.start(delay=RECONNECT_DELAY)

    def peer_unreachable(self) -> None:
        """Force the session down although our own link is up.

        Used by the cluster BGP speaker when a switch reports that the
        *physical* peering link failed: the speaker's relay link is
        healthy, so fast fallover cannot fire on it.
        """
        self._drop("peer_unreachable")

    def peer_reachable(self) -> None:
        """Physical path restored; reconnect after the usual delay."""
        if self.state is SessionState.IDLE and self.link.up:
            self.start(delay=RECONNECT_DELAY)

    def _drop(self, reason: str) -> None:
        """Go idle; an established session tells its host it is down."""
        was_established = self.established
        self._to_idle()
        if was_established:
            self.router.session_down(self, reason=reason)

    def _to_idle(self) -> None:
        self.state = SessionState.IDLE
        self.peer_asn = 0
        self.peer_name = ""
        self._open_received = False
        self._dirty = None
        if self._pending_obs is not None:
            self._pending_obs.clear()
        sim = self._sim
        if self._flush_event is not None:
            sim.cancel(self._flush_event)
            self._flush_event = None
        if self._mrai_event is not None:
            sim.cancel(self._mrai_event)
            self._mrai_event = None
        if self._connect_event is not None:
            sim.cancel(self._connect_event)
            self._connect_event = None

    # ------------------------------------------------------------------
    # FSM message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: BGPMessage) -> None:
        """Control-plane dispatch for one delivered message."""
        if isinstance(message, BGPOpen):
            self._handle_open(message)
        elif isinstance(message, BGPKeepalive):
            self._handle_keepalive(message)
        elif isinstance(message, BGPUpdate):
            self._handle_update(message)
        elif isinstance(message, BGPNotification):
            self._handle_notification(message)

    def _send_open(self) -> None:
        self._connect_event = None
        if self.state not in (SessionState.CONNECT,):
            return
        if not self.link.up:
            self._to_idle()
            return
        self._send(
            BGPOpen(sender_asn=self.local_asn, router_id=self.router.name)
        )
        self.state = SessionState.OPEN_SENT
        if self._open_received:
            self._complete_open_exchange()

    def _handle_open(self, message: BGPOpen) -> None:
        if self.state is SessionState.IDLE:
            # Passive open: a configured session accepts the peer's OPEN
            # even before its own start() ran (RFC 4271's passive TCP
            # establishment), as long as the link is usable.
            if not self.link.up:
                return
            self.state = SessionState.CONNECT
        self.peer_asn = message.sender_asn
        self.peer_name = message.router_id
        self._open_received = True
        if self.state is SessionState.CONNECT:
            # Peer beat our connect wait; answer with our own OPEN now.
            if self._connect_event is not None:
                self._sim.cancel(self._connect_event)
                self._connect_event = None
            self._send(
                BGPOpen(sender_asn=self.local_asn, router_id=self.router.name)
            )
            self.state = SessionState.OPEN_SENT
        if self.state is SessionState.OPEN_SENT:
            self._complete_open_exchange()

    def _complete_open_exchange(self) -> None:
        self._send(BGPKeepalive(sender_asn=self.local_asn))
        self.state = SessionState.OPEN_CONFIRM

    def _handle_keepalive(self, message: BGPKeepalive) -> None:
        # The KEEPALIVE that acks our OPEN; the only one a session sends.
        if self.state is SessionState.OPEN_CONFIRM:
            self.state = SessionState.ESTABLISHED
            self.router.session_up(self)

    def _handle_update(self, message: BGPUpdate) -> None:
        if not self.established:
            return
        self.updates_received += 1
        self.router.enqueue_update(self, message)

    def _handle_notification(self, message: BGPNotification) -> None:
        self._drop(f"notification:{message.code}")
        # Try again later, like a real speaker would.
        if self.link.up:
            self.start(delay=RECONNECT_DELAY)

    # ------------------------------------------------------------------
    # route advertisement with MRAI pacing
    # ------------------------------------------------------------------
    def schedule_route(self, prefix: Prefix) -> None:
        """Note that this peer may need an UPDATE about ``prefix``.

        The actual content is computed at send time by comparing the
        host's export (``_export_attrs``) with the Adj-RIB-Out, so
        intermediate flaps within one MRAI round collapse naturally.  Every decision change
        calls this once per session, so it reads the MRAI expiry's and
        the pending run's events directly instead of through helpers.
        """
        if self.state is not _ESTABLISHED:
            return
        dirty = self._dirty
        if dirty is None:
            dirty = self._dirty = {}
        dirty[prefix] = None
        obs = self.router.bus.obs
        if obs is not None:
            pending_obs = self._pending_obs
            if pending_obs is None:
                pending_obs = self._pending_obs = {}
            if prefix not in pending_obs:
                # The causal context that dirtied it (first cause wins).
                pending_obs[prefix] = (obs.current, self._sim.now)
        if self._mrai_event is None:
            # One output run shortly, coalescing concurrent changes.
            run = self._flush_event
            if run is None or run.cancelled:
                self._flush_event = self._output_lane.schedule(
                    self._flush_callback, label=self._flush_label
                )
            return
        if not self.timers.withdrawal_rate_limited:
            # RFC default: withdrawals escape the MRAI gate.
            attrs = self.router._export_attrs(self, prefix)
            if attrs is None and self.rib_out.get(prefix) is not None:
                dirty.pop(prefix, None)
                self._send_update(announced=(), withdrawn=(prefix,))
                self.rib_out.mark_sent(prefix, None)

    def resync(self) -> None:
        """Mark every Loc-RIB prefix (plus stale Adj-RIB-Out entries) dirty.

        Called on session establishment to send the initial full table.
        A session comes up with MRAI stopped and no run pending
        (``_to_idle``), so its first output run is scheduled here, empty
        table or not, and every prefix joins it.
        """
        if not self.established:
            return
        if self._flush_event is None and self._mrai_event is None:
            self._flush_event = self._output_lane.schedule(
                self._flush_callback, label=self._flush_label
            )
        for prefix in self.router.loc_rib.prefixes():
            self.schedule_route(prefix)
        for prefix in self.rib_out.prefixes():
            self.schedule_route(prefix)

    def _mrai_period(self) -> float:
        timers = self.timers
        mrai = timers.mrai
        if mrai <= 0:
            return 0.0
        jitter = timers.mrai_jitter
        if jitter <= 0:
            return mrai
        # random.uniform(low, mrai)'s own formula, inlined: the same one
        # draw on "bgp.mrai", bit for bit, without the method call.
        low = mrai * (1.0 - jitter)
        return low + (mrai - low) * self._mrai_rng.random()

    def _flush(self) -> None:
        """The output run: send one UPDATE covering the dirty prefixes
        that need one, then re-arm MRAI.

        Fired from the output lane and on MRAI expiry.  A lane run is
        only scheduled while MRAI is not armed, and only this method arms
        it, so a lane run never finds it armed.  Most runs send nothing
        (split horizon, export deny, peer already up to date): one pass
        over the dirty set decides that without building, sorting or
        diffing anything.  Every run with dirty prefixes, sent or not,
        draws its MRAI period: the draw order on ``bgp.mrai`` is part of
        every pinned result.
        """
        self._flush_event = self._mrai_event = None
        pending, self._dirty = self._dirty, None
        if not pending:
            # On MRAI expiry the gate simply opens: the next change is
            # sent at once (RFC behaviour after a quiet interval).
            return
        rib_out = self.rib_out
        # The host's export compared with the Adj-RIB-Out entry (the
        # interned attributes make a match usually the same object).
        export = self.router._export_attrs
        pending_obs = self._pending_obs
        sends = None
        for prefix in pending:
            attrs = export(self, prefix)
            held = rib_out.get(prefix)
            if held is not attrs and held != attrs:
                if sends is None:
                    sends = []
                sends.append((prefix, attrs))
            elif pending_obs:
                # Not sent: its cause is spent, so the prefix's next
                # UPDATE must not be parented under it or timed from it.
                pending_obs.pop(prefix, None)
        if sends is None:
            self._mrai_period()
            return
        # Prefixes are unique, so this orders by prefix alone.
        sends.sort()
        announced = []
        withdrawn = []
        for prefix, attrs in sends:
            if attrs is None:
                withdrawn.append(prefix)
            else:
                announced.append((prefix, attrs))
            rib_out.mark_sent(prefix, attrs)
        self._send_update(announced, withdrawn)
        period = self._mrai_period()
        if period > 0:
            self._mrai_event = self._sim.schedule(
                period, self._flush_callback, label=self._mrai_label
            )

    def _send_update(self, announced, withdrawn) -> None:
        update = BGPUpdate(
            sender_asn=self.local_asn,
            announced=tuple(announced),
            withdrawn=tuple(withdrawn),
            update_id=next(self._sim.serial("bgp.update")),
        )
        self.updates_sent += 1
        obs = self.router.bus.obs
        if obs is None:
            self._record_tx(update)
            self._send(update)
            return
        # Provenance: parent the tx span under the earliest cause that
        # dirtied any prefix this UPDATE covers (deterministic tie-break
        # by span id), stretch it back to that dirty instant, and make
        # it current while transmitting so the message carries it.
        pending = []
        pending_obs = self._pending_obs
        if pending_obs:
            for prefix, _attrs in update.announced:
                entry = pending_obs.pop(prefix, None)
                if entry is not None:
                    pending.append(entry)
            for prefix in update.withdrawn:
                entry = pending_obs.pop(prefix, None)
                if entry is not None:
                    pending.append(entry)
        if pending:
            ctx, t_dirty = min(
                pending,
                key=lambda e: (e[1], e[0][1] if e[0] is not None else -1),
            )
            wait = self._sim.now - t_dirty
        else:
            ctx, t_dirty, wait = obs.current, self._sim.now, 0.0
        prev = obs.swap(ctx)
        try:
            self._record_tx(update)
            obs.annotate_last(t_start=t_dirty, mrai_wait=wait)
            obs.swap(obs.last_ctx)
            self._send(update)
        finally:
            obs.swap(prev)

    def _record_tx(self, update: BGPUpdate) -> None:
        # Lazy payload: stringifying every announced path is the single
        # most expensive emit in the framework, and traced-off runs
        # never look at it.
        self.router.bus.record_lazy(
            "bgp.update.tx",
            self.router.name,
            lambda: {
                "peer": self.link.other(self.router).name,
                "announced": update.rendered()[0],
                "withdrawn": update.rendered()[1],
                "update_id": update.update_id,
            },
        )

    def _send(self, message: BGPMessage) -> None:
        if self.link.up:
            self.link.transmit(self.router, message)
