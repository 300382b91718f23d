"""BGP route collector — the framework's monitoring tap.

"All BGP routers peer with a BGP route collector, which collects routing
updates for monitoring purposes" (paper §3).  The collector is a passive
speaker: it imports everything and exports nothing.  What it hears is
on the record stream — a ``collector.update`` record and its own
``bgp.update.rx`` record per UPDATE — and a reader folds over those
(``bus.count("collector.update")``, a subscriber), so the collector
itself keeps no feed.
"""

from __future__ import annotations

from typing import Optional

from ..eventsim import Simulator
from .messages import BGPUpdate
from .policy import PeerPolicy, PolicyMode, Relationship
from .router import BGPRouter
from .session import BGPSession, BGPTimers

__all__ = ["RouteCollector", "collector_policy"]

#: ASN conventionally used for the collector (private range).
COLLECTOR_ASN = 64999


def collector_policy() -> PeerPolicy:
    """Import everything, export nothing."""
    return PeerPolicy(Relationship.FLAT, PolicyMode.SILENT)


class RouteCollector(BGPRouter):
    """A passive BGP speaker; every UPDATE it hears is a record."""

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
        #: one policy object for every feed (shared means read-only).
        self._feed_policy = collector_policy()

    def add_peer(self, link, **kwargs) -> BGPSession:
        """Configure an eBGP session over a link."""
        kwargs.setdefault("policy", self._feed_policy)
        return super().add_peer(link, **kwargs)

    def enqueue_update(self, session: BGPSession, update: BGPUpdate) -> None:
        """Queue a received UPDATE for serialized processing."""
        self.bus.record_lazy(
            "collector.update", self.name,
            lambda: {
                "peer": session.peer_name,
                "announced": len(update.announced),
                "withdrawn": len(update.withdrawn),
            },
        )
        super().enqueue_update(session, update)
