"""BGP route collector — the framework's monitoring tap.

"All BGP routers peer with a BGP route collector, which collects routing
updates for monitoring purposes" (paper §3).  The collector is a passive
speaker: it imports everything, exports nothing, and appends every UPDATE
it hears to a timestamped feed that the analysis tools (convergence-time
extraction, route-change visualization) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..eventsim import Simulator
from ..net.addr import Prefix
from .messages import BGPUpdate
from .policy import PeerPolicy, PolicyMode, Relationship
from .router import BGPRouter
from .session import BGPSession, BGPTimers

__all__ = ["RouteCollector", "CollectedUpdate", "collector_policy"]

#: ASN conventionally used for the collector (private range).
COLLECTOR_ASN = 64999


@dataclass(frozen=True)
class CollectedUpdate:
    """One UPDATE as seen by the collector."""

    time: float
    peer_name: str
    peer_asn: int
    announced: tuple  # ((prefix, as_path_str), ...)
    withdrawn: tuple  # (prefix, ...)

    @property
    def is_withdrawal(self) -> bool:
        """True for a pure-withdrawal update."""
        return bool(self.withdrawn) and not self.announced


def collector_policy() -> PeerPolicy:
    """Import everything, export nothing."""
    return PeerPolicy(Relationship.FLAT, PolicyMode.SILENT)


class RouteCollector(BGPRouter):
    """A passive BGP speaker recording every update it receives."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "collector",
        *,
        asn: int = COLLECTOR_ASN,
        timers: Optional[BGPTimers] = None,
    ) -> None:
        timers = timers if timers is not None else BGPTimers(mrai=0.0)
        super().__init__(sim, name, asn=asn, timers=timers)
        self.feed: List[CollectedUpdate] = []
        #: one policy object for every feed (shared means read-only).
        self._feed_policy = collector_policy()

    def add_peer(self, link, **kwargs) -> BGPSession:
        """Configure an eBGP session over a link."""
        kwargs.setdefault("policy", self._feed_policy)
        return super().add_peer(link, **kwargs)

    def enqueue_update(self, session: BGPSession, update: BGPUpdate) -> None:
        """Queue a received UPDATE for serialized processing."""
        self.feed.append(
            CollectedUpdate(
                time=self.sim.now,
                peer_name=session.peer_name,
                peer_asn=session.peer_asn,
                announced=tuple(
                    (p, str(a.as_path)) for p, a in update.announced
                ),
                withdrawn=tuple(update.withdrawn),
            )
        )
        self.bus.record_lazy(
            "collector.update", self.name,
            lambda: {
                "peer": session.peer_name,
                "announced": len(update.announced),
                "withdrawn": len(update.withdrawn),
            },
        )
        super().enqueue_update(session, update)

    # ------------------------------------------------------------------
    # feed queries
    # ------------------------------------------------------------------
    def updates_since(self, since: float) -> List[CollectedUpdate]:
        """Feed entries at/after a time."""
        return [u for u in self.feed if u.time >= since]

    def updates_for(
        self, prefix: Prefix, since: float = 0.0
    ) -> List[CollectedUpdate]:
        out = []
        for upd in self.feed:
            if upd.time < since:
                continue
            touched = prefix in upd.withdrawn or any(
                p == prefix for p, _ in upd.announced
            )
            if touched:
                out.append(upd)
        return out

    def last_update_time(self, since: float = 0.0) -> Optional[float]:
        """Timestamp of the newest feed entry, or None."""
        times = [u.time for u in self.feed if u.time >= since]
        return max(times) if times else None
