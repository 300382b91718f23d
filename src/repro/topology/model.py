"""AS-level topology model.

Topologies are pure data — AS numbers, inter-AS links, business
relationships — independent of the emulation substrate.  The framework
("repro.framework") turns a :class:`Topology` into live emulated devices;
builders (clique, random models) and dataset loaders (CAIDA, iPlane)
produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from ..bgp.policy import Relationship

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["ASSpec", "InterASLink", "Topology", "TopologyError"]


class TopologyError(ValueError):
    """Malformed topology (self-loop, duplicate link, unknown AS...)."""


@dataclass(frozen=True, slots=True)
class ASSpec:
    """One autonomous system in the topology."""

    asn: int
    name: str = ""
    #: annotation for dataset-derived topologies (e.g. "tier1", "stub").
    role: str = ""

    def label(self) -> str:
        """Display name (explicit name or a generated one)."""
        return self.name or f"as{self.asn}"


@dataclass(frozen=True, slots=True)
class InterASLink:
    """An inter-AS adjacency.

    ``relationship`` is from ``a``'s point of view: CUSTOMER means *b is
    a's customer* (a provides transit to b); PEER/FLAT are symmetric.
    """

    a: int
    b: int
    relationship: Relationship = Relationship.FLAT
    latency: float = 0.01

    def endpoints(self) -> Tuple[int, int]:
        """The two ASNs as a tuple."""
        return (self.a, self.b)

    def relationship_for(self, asn: int) -> Relationship:
        """The relationship of the *other* endpoint, seen from ``asn``."""
        if asn == self.a:
            return self.relationship
        if asn == self.b:
            return self.relationship.inverse
        raise TopologyError(f"AS{asn} is not on link {self.a}-{self.b}")

    def other(self, asn: int) -> int:
        """The opposite endpoint."""
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise TopologyError(f"AS{asn} is not on link {self.a}-{self.b}")


class Topology:
    """A set of ASes plus inter-AS links with relationships."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._ases: Dict[int, ASSpec] = {}
        self._links: List[InterASLink] = []
        self._adjacency: Dict[int, Set[int]] = {}
        self._link_by_pair: Dict[Tuple[int, int], InterASLink] = {}

    # ------------------------------------------------------------------
    def add_as(self, asn: int, *, name: str = "", role: str = "") -> ASSpec:
        """Add an AS; raises on duplicates or bad ASNs."""
        if asn <= 0:
            raise TopologyError(f"ASN must be positive: {asn!r}")
        if asn in self._ases:
            raise TopologyError(f"duplicate AS: {asn}")
        spec = ASSpec(asn, name=name, role=role)
        self._ases[asn] = spec
        self._adjacency[asn] = set()
        return spec

    def add_link(
        self,
        a: int,
        b: int,
        *,
        relationship: Relationship = Relationship.FLAT,
        latency: float = 0.01,
    ) -> InterASLink:
        if a == b:
            raise TopologyError(f"self-loop at AS{a}")
        for asn in (a, b):
            if asn not in self._ases:
                raise TopologyError(f"unknown AS: {asn}")
        if b in self._adjacency[a]:
            raise TopologyError(f"duplicate link {a}-{b}")
        link = InterASLink(a, b, relationship=relationship, latency=latency)
        self._links.append(link)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._link_by_pair[(a, b) if a < b else (b, a)] = link
        return link

    # ------------------------------------------------------------------
    @property
    def ases(self) -> List[ASSpec]:
        """All AS specs, ASN-ordered."""
        return [self._ases[asn] for asn in sorted(self._ases)]

    @property
    def asns(self) -> List[int]:
        """All AS numbers, sorted."""
        return sorted(self._ases)

    @property
    def links(self) -> List[InterASLink]:
        """All inter-AS links, in insertion order."""
        return list(self._links)

    def __len__(self) -> int:
        return len(self._ases)

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def spec(self, asn: int) -> ASSpec:
        """The ASSpec for one ASN; raises on unknown AS."""
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown AS: {asn}") from None

    def neighbors(self, asn: int) -> List[int]:
        """Adjacent ASNs / nodes."""
        if asn not in self._adjacency:
            raise TopologyError(f"unknown AS: {asn}")
        return sorted(self._adjacency[asn])

    def degree(self, asn: int) -> int:
        """Number of adjacencies."""
        return len(self.neighbors(asn))

    def link_between(self, a: int, b: int) -> Optional[InterASLink]:
        """The link joining two nodes/ASes, if any — O(1)."""
        return self._link_by_pair.get((a, b) if a < b else (b, a))

    def links_of(self, asn: int) -> Iterator[InterASLink]:
        for link in self._links:
            if asn in link.endpoints():
                yield link

    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True when the AS graph is one component."""
        import networkx as nx

        return len(self) > 0 and nx.is_connected(self.to_networkx())

    def to_networkx(self) -> nx.Graph:
        """Export as a networkx graph with attributes."""
        import networkx as nx

        graph = nx.Graph()
        for spec in self.ases:
            graph.add_node(spec.asn, name=spec.label(), role=spec.role)
        for link in self._links:
            graph.add_edge(
                link.a, link.b,
                relationship=link.relationship.value, latency=link.latency,
            )
        return graph

    def customers_of(self, asn: int) -> List[int]:
        """ASes that buy transit from ``asn``."""
        out = []
        for link in self.links_of(asn):
            if link.relationship_for(asn) is Relationship.CUSTOMER:
                out.append(link.other(asn))
        return sorted(out)

    def providers_of(self, asn: int) -> List[int]:
        out = []
        for link in self.links_of(asn):
            if link.relationship_for(asn) is Relationship.PROVIDER:
                out.append(link.other(asn))
        return sorted(out)

    def peers_of(self, asn: int) -> List[int]:
        out = []
        for link in self.links_of(asn):
            if link.relationship_for(asn) is Relationship.PEER:
                out.append(link.other(asn))
        return sorted(out)

    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural problems."""
        import networkx as nx

        if not self._ases:
            raise TopologyError("empty topology")
        # provider cycles make Gao-Rexford ill-defined; detect them.
        digraph = nx.DiGraph()
        digraph.add_nodes_from(self._ases)
        for link in self._links:
            if link.relationship is Relationship.CUSTOMER:
                digraph.add_edge(link.a, link.b)  # provider -> customer
            elif link.relationship is Relationship.PROVIDER:
                digraph.add_edge(link.b, link.a)
        if not nx.is_directed_acyclic_graph(digraph):
            cycle = nx.find_cycle(digraph)
            raise TopologyError(f"customer-provider cycle: {cycle}")

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r} ases={len(self._ases)} "
            f"links={len(self._links)}>"
        )
