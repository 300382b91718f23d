"""BGP routing policy: relationships, route-maps, Gao-Rexford templates.

The framework "configures ... customer-to-provider and peer-to-peer
relationships" automatically.  We model policy the way Quagga does — as
ordered route-maps applied on import and export per peer — and provide
the two policy templates the experiments use:

- **Gao-Rexford** (valley-free): import tags each route with the business
  relationship it was learned over and sets LOCAL_PREF customer > peer >
  provider; export follows the no-valley rule (routes from peers or
  providers are only exported to customers).
- **Transit-all** (flat): every AS re-exports everything, the classic
  setting for clique convergence studies (Labovitz et al.) and the one
  the paper's 16-AS clique experiment corresponds to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..net.addr import Prefix
from .attrs import PathAttributes

__all__ = [
    "Relationship",
    "RouteMap",
    "RouteMapEntry",
    "PeerPolicy",
    "gao_rexford_policy",
    "transit_all_policy",
    "LOCAL_COMMUNITY",
    "relationship_community",
    "LOCAL_PREF_BY_RELATIONSHIP",
]

#: Community tagged on locally-originated routes.
LOCAL_COMMUNITY = "origin:local"


class Relationship(enum.Enum):
    """Business relationship of a *peer*, from this AS's point of view."""

    CUSTOMER = "customer"   # the peer pays us
    PEER = "peer"           # settlement-free peering
    PROVIDER = "provider"   # we pay the peer
    FLAT = "flat"           # no business policy (transit-all experiments)

    @property
    def inverse(self) -> "Relationship":
        """The relationship as seen from the other side of the link."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return self


#: Standard local-pref ladder: prefer customer routes, then peers, then
#: providers (economics: customers pay, providers cost).
LOCAL_PREF_BY_RELATIONSHIP = {
    Relationship.CUSTOMER: 200,
    Relationship.PEER: 100,
    Relationship.PROVIDER: 50,
    Relationship.FLAT: 100,
}


def relationship_community(rel: Relationship) -> str:
    """Community recording which relationship a route was learned over."""
    return f"learned:{rel.value}"


# ----------------------------------------------------------------------
# Route-maps
# ----------------------------------------------------------------------
@dataclass
class RouteMapEntry:
    """One permit/deny clause with optional matches and actions.

    ``matches`` are predicates over ``(prefix, attrs)``; all must hold for
    the entry to fire.  On a permit, ``actions`` transform the attributes
    in order.
    """

    permit: bool = True
    matches: List[Callable[[Prefix, PathAttributes], bool]] = field(
        default_factory=list
    )
    actions: List[Callable[[PathAttributes], PathAttributes]] = field(
        default_factory=list
    )
    description: str = ""

    def applies(self, prefix: Prefix, attrs: PathAttributes) -> bool:
        """True when every match predicate holds."""
        return all(match(prefix, attrs) for match in self.matches)

    def apply_actions(self, attrs: PathAttributes) -> PathAttributes:
        """Run all actions over the attributes."""
        for action in self.actions:
            attrs = action(attrs)
        return attrs


class RouteMap:
    """Ordered first-match route-map, Quagga semantics.

    If no entry matches, the route is denied (matching Quagga's implicit
    deny) unless ``default_permit`` is set.
    """

    def __init__(
        self,
        entries: Optional[Sequence[RouteMapEntry]] = None,
        *,
        default_permit: bool = False,
        name: str = "",
    ) -> None:
        self.entries: List[RouteMapEntry] = list(entries or [])
        self.default_permit = default_permit
        self.name = name

    def append(self, entry: RouteMapEntry) -> None:
        """Add an entry at the end."""
        self.entries.append(entry)

    def evaluate(
        self, prefix: Prefix, attrs: PathAttributes
    ) -> Optional[PathAttributes]:
        """Transformed attributes if permitted, None if denied."""
        for entry in self.entries:
            if entry.applies(prefix, attrs):
                if not entry.permit:
                    return None
                return entry.apply_actions(attrs)
        return attrs if self.default_permit else None

    def __repr__(self) -> str:
        return f"<RouteMap {self.name or '?'} entries={len(self.entries)}>"


# ----------------------------------------------------------------------
# Match / action helpers (building blocks for templates and user policy)
# ----------------------------------------------------------------------
def match_prefix_in(prefixes: Sequence[Prefix]):
    """Match NLRI covered by any prefix in the list."""
    covered = list(prefixes)

    def match(prefix: Prefix, attrs: PathAttributes) -> bool:
        return any(prefix in cover or prefix == cover for cover in covered)

    return match


def match_community(community: str):
    def match(prefix: Prefix, attrs: PathAttributes) -> bool:
        return attrs.has_community(community)

    return match


def match_any_community(communities: Sequence[str]):
    wanted = set(communities)

    def match(prefix: Prefix, attrs: PathAttributes) -> bool:
        return bool(wanted.intersection(attrs.communities))

    return match


def match_as_in_path(asn: int):
    def match(prefix: Prefix, attrs: PathAttributes) -> bool:
        return attrs.as_path.contains(asn)

    return match


def set_local_pref(value: int):
    def action(attrs: PathAttributes) -> PathAttributes:
        return attrs.with_local_pref(value)

    return action


def add_community(community: str):
    def action(attrs: PathAttributes) -> PathAttributes:
        if attrs.has_community(community):
            return attrs
        return attrs.with_communities(attrs.communities + (community,))

    return action


def strip_learned_communities():
    """Drop relationship tags before exporting (they are local meaning)."""

    def action(attrs: PathAttributes) -> PathAttributes:
        kept = tuple(
            c for c in attrs.communities
            if not c.startswith("learned:") and c != LOCAL_COMMUNITY
        )
        return attrs.with_communities(kept)

    return action


def prepend_path(asn: int, count: int):
    def action(attrs: PathAttributes) -> PathAttributes:
        return attrs.with_path(attrs.as_path.prepend(asn, count))

    return action


# ----------------------------------------------------------------------
# Per-peer policy bundles
# ----------------------------------------------------------------------
@dataclass(eq=False)
class PeerPolicy:
    """Import and export route-maps for one BGP peer, plus its relationship.

    Compared and hashed by identity: sessions sharing one policy object
    form one update group (``BGPRouter._export_attrs``), so a policy is
    read-only once handed out — change a session's by replacing it.
    """

    relationship: Relationship
    import_map: RouteMap
    export_map: RouteMap

    def import_route(
        self, prefix: Prefix, attrs: PathAttributes
    ) -> Optional[PathAttributes]:
        return self.import_map.evaluate(prefix, attrs)

    def export_route(
        self, prefix: Prefix, attrs: PathAttributes
    ) -> Optional[PathAttributes]:
        return self.export_map.evaluate(prefix, attrs)

    def with_export_prepend(self, asn: int, count: int) -> "PeerPolicy":
        """A copy whose permits additionally prepend ``asn`` x ``count``.

        This is the operator's standard primary/backup trick: prepending
        on the backup session makes its paths longer, so the backup only
        carries traffic after the primary is gone — and BGP must explore
        the length gap on fail-over.
        """
        entries = [
            RouteMapEntry(
                permit=entry.permit,
                matches=list(entry.matches),
                actions=list(entry.actions)
                + ([prepend_path(asn, count)] if entry.permit else []),
                description=(entry.description + f" +prepend x{count}").strip(),
            )
            for entry in self.export_map.entries
        ]
        export_map = RouteMap(
            entries,
            default_permit=self.export_map.default_permit,
            name=f"{self.export_map.name}-prepend{count}",
        )
        return PeerPolicy(self.relationship, self.import_map, export_map)


def gao_rexford_policy(relationship: Relationship) -> PeerPolicy:
    """Valley-free policy bundle for a peer with the given relationship.

    Import: set LOCAL_PREF by relationship and tag the route.
    Export: permit locally-originated and customer-learned routes to
    everyone; peer-/provider-learned routes only to customers.
    """
    import_map = RouteMap(
        [
            RouteMapEntry(
                permit=True,
                actions=[
                    set_local_pref(LOCAL_PREF_BY_RELATIONSHIP[relationship]),
                    add_community(relationship_community(relationship)),
                ],
                description=f"import from {relationship.value}",
            )
        ],
        name=f"gr-import-{relationship.value}",
    )
    exportable = [
        LOCAL_COMMUNITY,
        relationship_community(Relationship.CUSTOMER),
    ]
    if relationship is Relationship.CUSTOMER:
        # Everything goes to customers.
        entries = [
            RouteMapEntry(
                permit=True,
                actions=[strip_learned_communities()],
                description="export all to customer",
            )
        ]
    else:
        entries = [
            RouteMapEntry(
                permit=True,
                matches=[match_any_community(exportable)],
                actions=[strip_learned_communities()],
                description=f"export own/customer routes to {relationship.value}",
            ),
            RouteMapEntry(permit=False, description="implicit valley deny"),
        ]
    export_map = RouteMap(entries, name=f"gr-export-{relationship.value}")
    return PeerPolicy(relationship, import_map, export_map)


def transit_all_policy() -> PeerPolicy:
    """Flat policy: accept and re-export everything (clique experiments)."""
    import_map = RouteMap(
        [RouteMapEntry(permit=True, description="accept all")],
        name="flat-import",
    )
    export_map = RouteMap(
        [
            RouteMapEntry(
                permit=True,
                actions=[strip_learned_communities()],
                description="export all",
            )
        ],
        name="flat-export",
    )
    return PeerPolicy(Relationship.FLAT, import_map, export_map)
