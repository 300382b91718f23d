"""Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.

One :class:`AdjRibIn` per peer holds the (policy-transformed) routes that
peer advertised; the :class:`LocRib` holds the decision-process winner per
prefix; one :class:`AdjRibOut` per peer records what we last advertised,
so UPDATE generation is a pure diff — no duplicate announcements, and
withdrawals are only sent for prefixes the peer actually heard from us.

Every router also maintains a :class:`RouteIndex`: a prefix-major view
(prefix → {link_id: route}) of all its Adj-RIB-In tables, kept in sync
by the tables themselves.  The decision process reads the candidates
for one prefix directly instead of probing every session's table —
O(routes for the prefix) instead of O(sessions) per decision, which is
what makes 5k-AS withdrawal storms tractable (see ``docs/scaling.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, Optional

from ..net.addr import Prefix
from .attrs import PathAttributes

__all__ = [
    "Route", "RouteIndex", "AdjRibIn", "LocRib", "AdjRibOut",
    "NO_RIB_IN", "NO_RIB_OUT",
]


@dataclass(frozen=True, slots=True)
class Route:
    """A candidate route: prefix + attributes + provenance.

    ``peer_asn`` is 0 for locally-originated routes.  ``learned_at`` is
    virtual time, used for diagnostics and the route-change visualizer.
    ``link_id`` names the session a learned route came in on (-1: none),
    so finding that session is one lookup; it is bookkeeping, not part
    of the route's value.
    """

    prefix: Prefix
    attrs: PathAttributes
    peer_asn: int = 0
    peer_name: str = ""
    learned_at: float = 0.0
    link_id: int = field(default=-1, compare=False)

    @property
    def is_local(self) -> bool:
        """True for locally-originated routes (no peer)."""
        return self.peer_asn == 0

    @property
    def as_path_len(self) -> int:
        """Length of the route's AS path."""
        return self.attrs.as_path.length

    def __repr__(self) -> str:
        src = "local" if self.is_local else f"AS{self.peer_asn}"
        return f"<Route {self.prefix} via {src} path=[{self.attrs.as_path}]>"


class RouteIndex:
    """Prefix-major index over a router's Adj-RIB-In tables.

    Maps each prefix to ``{link_id: route}`` for every peer table that
    currently holds it.  The index never stores anything the tables do
    not: :class:`AdjRibIn` instances constructed with ``index=`` keep it
    in sync on every install, withdraw and clear, so reading the index
    is exactly equivalent to probing every table — just without the
    O(sessions) scan.
    """

    __slots__ = ("_by_prefix",)

    def __init__(self) -> None:
        self._by_prefix: Dict[Prefix, Dict[int, Route]] = {}

    def __len__(self) -> int:
        return len(self._by_prefix)

    def set(self, link_id: int, route: Route) -> None:
        """Install/replace the route one peer table holds for a prefix."""
        self._by_prefix.setdefault(route.prefix, {})[link_id] = route

    def discard(self, link_id: int, prefix: Prefix) -> None:
        """Remove one peer table's entry for a prefix, if present."""
        entry = self._by_prefix.get(prefix)
        if entry is None:
            return
        entry.pop(link_id, None)
        if not entry:
            del self._by_prefix[prefix]

    def get(self, prefix: Prefix) -> Dict[int, Route]:
        """The ``{link_id: route}`` entries for one prefix (maybe empty)."""
        return self._by_prefix.get(prefix, {})

    def prefixes(self) -> list:
        """All prefixes with at least one entry, as a list."""
        return list(self._by_prefix)


#: what an Adj-RIB holds until its first route: one shared, empty,
#: read-only mapping, swapped for a dict of its own by the first write.
#: Most sessions of a large storm never carry a route (docs/scaling.md,
#: "Set-up cost").
_EMPTY = MappingProxyType({})


class AdjRibIn:
    """Routes received from one peer, post-import-policy.

    When constructed with ``link_id``/``index`` the table mirrors every
    mutation into the router-wide :class:`RouteIndex` so the decision
    process can read candidates per prefix.

    Slotted, and holds no dict until its first route: one per session.
    """

    __slots__ = ("peer_asn", "peer_name", "_routes", "_link_id", "_index")

    def __init__(
        self,
        peer_asn: int,
        peer_name: str = "",
        *,
        link_id: Optional[int] = None,
        index: Optional[RouteIndex] = None,
    ) -> None:
        self.peer_asn = peer_asn
        self.peer_name = peer_name
        self._routes: Dict[Prefix, Route] = _EMPTY
        self._link_id = link_id
        self._index = index if link_id is not None else None

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes.values())

    def get(self, prefix: Prefix) -> Optional[Route]:
        """Exact-match lookup; None if absent."""
        return self._routes.get(prefix)

    def update(self, route: Route) -> bool:
        """Install/replace; True if state changed."""
        routes = self._routes
        old = routes.get(route.prefix)
        if old is not None and old.attrs == route.attrs:
            return False
        if routes is _EMPTY:
            routes = self._routes = {}
        routes[route.prefix] = route
        if self._index is not None:
            self._index.set(self._link_id, route)
        return True

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove; True if a route existed."""
        routes = self._routes
        if not routes:
            return False
        existed = routes.pop(prefix, None) is not None
        if existed and self._index is not None:
            self._index.discard(self._link_id, prefix)
        return existed

    def clear(self) -> list:
        """Drop everything (session reset); returns the prefixes removed."""
        if not self._routes:
            return []
        prefixes = list(self._routes)
        self._routes = _EMPTY
        if self._index is not None:
            for prefix in prefixes:
                self._index.discard(self._link_id, prefix)
        return prefixes

    def prefixes(self) -> list:
        """All prefixes currently held, as a list."""
        return list(self._routes)


class LocRib:
    """Best route per prefix, as chosen by the decision process."""

    def __init__(self) -> None:
        self._best: Dict[Prefix, Route] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._best)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._best.values())

    def get(self, prefix: Prefix) -> Optional[Route]:
        """Exact-match lookup; None if absent."""
        return self._best.get(prefix)

    def set_best(self, route: Route) -> bool:
        """Install the new best route; True if it changed."""
        old = self._best.get(route.prefix)
        if old is not None and old.attrs == route.attrs and old.peer_asn == route.peer_asn:
            return False
        self._best[route.prefix] = route
        self.version += 1
        return True

    def remove(self, prefix: Prefix) -> bool:
        """Remove the entry; True if one existed."""
        if prefix in self._best:
            del self._best[prefix]
            self.version += 1
            return True
        return False

    def prefixes(self) -> list:
        """All prefixes currently held, as a list."""
        return list(self._best)

    def routes(self) -> list:
        """All routes, sorted by prefix."""
        return sorted(self._best.values(), key=lambda r: r.prefix)


class AdjRibOut:
    """What we last sent to one peer; an output run compares the export
    with it.

    Slotted: one per session, and every output run reads it.  Like
    :class:`AdjRibIn`, it holds no dict until its first route.
    """

    __slots__ = ("peer_asn", "peer_name", "_sent")

    def __init__(self, peer_asn: int, peer_name: str = "") -> None:
        self.peer_asn = peer_asn
        self.peer_name = peer_name
        self._sent: Dict[Prefix, PathAttributes] = _EMPTY

    def __len__(self) -> int:
        return len(self._sent)

    def get(self, prefix: Prefix) -> Optional[PathAttributes]:
        """Exact-match lookup; None if absent."""
        return self._sent.get(prefix)

    def mark_sent(self, prefix: Prefix, attrs: Optional[PathAttributes]) -> None:
        sent = self._sent
        if attrs is None:
            if sent:
                sent.pop(prefix, None)
            return
        if sent is _EMPTY:
            sent = self._sent = {}
        sent[prefix] = attrs

    def clear(self) -> None:
        """Drop all stored state."""
        if self._sent:
            self._sent = _EMPTY

    def prefixes(self) -> list:
        """All prefixes currently held, as a list."""
        return list(self._sent)


#: what a session that has never come up reads as its tables: its
#: speaker makes them in ``session_up``.  Shared and read-only, on a
#: mapping of their own rather than ``_EMPTY`` — a route written to one
#: fails (no item assignment) instead of leaking into every such
#: session; removing from an empty table writes nothing.
NO_RIB_IN = AdjRibIn(0)
NO_RIB_IN._routes = MappingProxyType({})
NO_RIB_OUT = AdjRibOut(0)
NO_RIB_OUT._sent = MappingProxyType({})
