"""BGP routing policy: relationships, the valley-free rule, the ladder.

The framework "configures ... customer-to-provider and peer-to-peer
relationships" automatically.  A route's business meaning is the
relationship of the session it was learned over, so policy is a plain
value per session — no route-maps, no tags on the route — and this
module is the one place the business rules are declared, for legacy
routers and the IDR controller alike:

- :data:`LOCAL_PREF_BY_RELATIONSHIP`, the preference ladder: customer >
  peer > provider;
- :func:`exports`, the valley-free (Gao-Rexford) export rule: routes
  from peers or providers are only exported to customers;
- :class:`PeerPolicy`, one session's relationship, mode and AS-path
  prepend.

The modes are the two templates the experiments use plus the route
collector's: **valley-free** (import sets LOCAL_PREF from the ladder,
export follows :func:`exports`), **transit-all** (every AS re-exports
everything, the classic setting for clique convergence studies, Labovitz
et al., and the one the paper's 16-AS clique experiment corresponds to)
and **silent** (import everything, export nothing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from .attrs import DEFAULT_LOCAL_PREF, PathAttributes

__all__ = [
    "Relationship",
    "PolicyMode",
    "PeerPolicy",
    "LOCAL_PREF_BY_RELATIONSHIP",
    "exports",
    "gao_rexford_policy",
    "transit_all_policy",
]


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


def exports(learned: Optional[Relationship], toward: Relationship) -> bool:
    """The valley-free rule: may a route learned over ``learned`` (None:
    originated here) be exported toward a peer of ``toward``?

    Own and customer-learned routes go to everyone; peer- and
    provider-learned routes only to customers.  A FLAT link carries no
    business policy, so what it brings in goes everywhere too.
    """
    return (
        learned is None
        or learned is Relationship.CUSTOMER
        or learned is Relationship.FLAT
        or toward is Relationship.CUSTOMER
    )


class PolicyMode(enum.Enum):
    """How a session applies its relationship."""

    VALLEY_FREE = "valley-free"   # Gao-Rexford
    TRANSIT_ALL = "transit-all"   # flat: accept and re-export everything
    SILENT = "silent"             # route collector: accept, export nothing


@dataclass(eq=False, frozen=True)
class PeerPolicy:
    """One BGP session's policy: the peer's relationship, the mode, and
    how many extra copies of the local ASN to prepend on export.

    Compared and hashed by identity: sessions sharing one policy object
    form one update group (``BGPRouter._export_attrs``), so a policy is
    read-only once handed out — change a session's by replacing it.
    """

    relationship: Relationship
    mode: PolicyMode
    prepend: int = 0

    def import_attrs(self, attrs: PathAttributes) -> PathAttributes:
        """A received route's attributes as stored: valley-free sessions
        set LOCAL_PREF from the ladder, the others keep what came."""
        if self.mode is PolicyMode.VALLEY_FREE:
            return attrs.with_local_pref(
                LOCAL_PREF_BY_RELATIONSHIP[self.relationship]
            )
        return attrs

    def export_attrs(
        self,
        attrs: PathAttributes,
        learned: Optional[Relationship],
        local_asn: int,
    ) -> Optional[PathAttributes]:
        """What this session advertises for a best route with ``attrs``
        learned over ``learned`` (None: originated), or None if denied.

        The local ASN goes on the path ``1 + prepend`` times; LOCAL_PREF
        is not carried across eBGP, so it is reset to the default and the
        receiver's import decides.
        """
        if self.mode is PolicyMode.SILENT or (
            self.mode is PolicyMode.VALLEY_FREE
            and not exports(learned, self.relationship)
        ):
            return None
        return PathAttributes(
            as_path=attrs.as_path.prepend(local_asn, 1 + self.prepend),
            origin=attrs.origin,
            local_pref=DEFAULT_LOCAL_PREF,
            med=attrs.med,
        )

    def with_export_prepend(self, count: int) -> "PeerPolicy":
        """A copy that prepends the local ASN ``count`` extra times.

        This is the operator's standard primary/backup trick: prepending
        on the backup session makes its paths longer, so the backup only
        carries traffic after the primary is gone — and BGP must explore
        the length gap on fail-over.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1: {count!r}")
        return replace(self, prepend=self.prepend + count)


def gao_rexford_policy(relationship: Relationship) -> PeerPolicy:
    """Valley-free policy for a peer with the given relationship."""
    return PeerPolicy(relationship, PolicyMode.VALLEY_FREE)


def transit_all_policy() -> PeerPolicy:
    """Flat policy: accept and re-export everything (clique experiments)."""
    return PeerPolicy(Relationship.FLAT, PolicyMode.TRANSIT_ALL)
