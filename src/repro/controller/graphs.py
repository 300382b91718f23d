"""The controller's two graphs (paper §3).

The paper's key design insight is that the controller cannot reuse BGP's
distributed loop avoidance: a centrally computed route may egress the
cluster, cross the legacy world, and *re-enter* the cluster, looping.
It therefore keeps:

- the **Switch graph** — the physical topology of cluster switches and
  their up intra-cluster links (plus external peering attachment
  points), maintained from PortStatus events; and
- a per-destination-prefix **AS topology graph** — a transformation of
  the switch graph where each usable way of reaching the prefix becomes
  a weighted edge toward a virtual destination node.  External routes
  whose AS path contains any member of the *same sub-cluster* are
  excluded (using them could re-enter this sub-cluster = loop); paths
  through members of a *different* sub-cluster are allowed, which is
  precisely what lets disjoint sub-clusters reach each other over the
  legacy Internet (design goal §2).

Best paths are computed with Dijkstra on the AS topology graph
(``repro.controller.routing``).

Both graphs are plain dicts and tuples.  Everything a recompute derives
from link state alone — sorted members, up-neighbours, sub-clusters,
per-member loop-avoidance ASN sets — lives in one cached
:class:`SwitchGraphView` that only a topology change drops, so the
per-prefix work is the routes themselves.  A networkx rendering of the
AS topology graph is available on demand (:attr:`ASTopologyGraph.graph`)
for inspection and tests; route computation never touches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from ..bgp.attrs import AsPath, Origin
from ..bgp.policy import LOCAL_PREF_BY_RELATIONSHIP, Relationship
from ..net.addr import Prefix

__all__ = [
    "Peering",
    "ExternalRoute",
    "SwitchGraph",
    "SwitchGraphView",
    "ASTopologyGraph",
    "DEST",
    "INTRA_WEIGHT",
    "EGRESS_BASE_COST",
    "build_as_topology",
]

#: Name of the virtual destination node in the AS topology graph.
DEST = "__dest__"

#: Weight of one intra-cluster hop in the AS topology graph.
INTRA_WEIGHT = 1.0

#: Weight every egress edge adds to its external AS-path length.
EGRESS_BASE_COST = 1.0


@dataclass(frozen=True)
class Peering:
    """One external BGP peering of a cluster member.

    The speaker terminates the BGP session (impersonating ``member_asn``)
    over ``relay link``; data-plane traffic egresses over the physical
    link named ``phys_link_name`` on switch ``member``.
    """

    member: str
    member_asn: int
    external: str
    phys_link_name: str
    #: business relationship of the external AS from the member's point
    #: of view (CUSTOMER = external pays the member).  FLAT disables
    #: valley-free preference/export rules.
    relationship: Relationship = Relationship.FLAT

    def __str__(self) -> str:
        return f"{self.member}<->{self.external}"


@dataclass(frozen=True)
class ExternalRoute:
    """A route for one prefix learned over one peering."""

    peering: Peering
    prefix: Prefix
    as_path: AsPath
    origin: Origin = Origin.IGP
    med: int = 0
    learned_at: float = 0.0

    @property
    def path_len(self) -> int:
        """AS-path length of the external route."""
        return self.as_path.length


class SwitchGraphView(NamedTuple):
    """Everything route computation derives from the current link state.

    Built once per link-state change (:meth:`SwitchGraph.view`) and
    shared, read-only, by every per-prefix AS topology graph computed
    until the next change.
    """

    #: member names, sorted.
    members: Tuple[str, ...]
    #: member -> members adjacent over currently-up links, sorted.
    neighbors: Dict[str, Tuple[str, ...]]
    #: connected components, ordered by their smallest member.
    sub_clusters: Tuple[FrozenSet[str], ...]
    #: member -> the ASNs of its sub-cluster (the loop-avoidance set).
    cluster_asns: Dict[str, FrozenSet[int]]


class SwitchGraph:
    """Live physical view of the cluster: members + intra-cluster links.

    Maintained by the controller from its initial topology knowledge and
    subsequent PortStatus events.  Sub-clusters are the connected
    components — an intra-cluster link failure splits the cluster, and
    route computation then treats each component independently.
    """

    def __init__(self) -> None:
        #: member -> {neighbour -> [link_name, up]}; the two directions
        #: of a link share one state list.
        self._adj: Dict[str, Dict[str, list]] = {}
        #: member name -> ASN
        self.member_asn: Dict[str, int] = {}
        #: cached :class:`SwitchGraphView`; None after any mutation.
        self._view: Optional[SwitchGraphView] = None

    def add_member(self, name: str, asn: int) -> None:
        """Register a member switch and its ASN."""
        self.member_asn[name] = asn
        self._adj.setdefault(name, {})
        self._view = None

    def members(self) -> List[str]:
        """Member switch names, sorted."""
        return list(self.view().members)

    def member_asns(self) -> Set[int]:
        """The set of all member AS numbers."""
        return set(self.member_asn.values())

    def add_intra_link(self, a: str, b: str, link_name: str) -> None:
        """Register an intra-cluster adjacency."""
        if a not in self.member_asn or b not in self.member_asn:
            raise KeyError(f"both endpoints must be members: {a}, {b}")
        self._adj[a][b] = self._adj[b][a] = [link_name, True]
        self._view = None

    def set_link_state(self, a: str, b: str, up: bool) -> bool:
        """Mark an intra-cluster link up/down; True if it existed."""
        link = self._adj.get(a, {}).get(b)
        if link is None:
            return False
        link[1] = up
        self._view = None
        return True

    def view(self) -> SwitchGraphView:
        """The derived state for the current links (cached until the
        next :meth:`add_member` / :meth:`add_intra_link` /
        :meth:`set_link_state`)."""
        view = self._view
        if view is None:
            view = self._view = self._derive_view()
        return view

    def _derive_view(self) -> SwitchGraphView:
        members = tuple(sorted(self._adj))
        neighbors = {
            member: tuple(sorted(
                nbr for nbr, (_, up) in self._adj[member].items() if up
            ))
            for member in members
        }
        sub_clusters: List[FrozenSet[str]] = []
        cluster_asns: Dict[str, FrozenSet[int]] = {}
        # Sorted start points: components come out ordered by their
        # smallest member.
        for start in members:
            if start in cluster_asns:
                continue
            reached = {start}
            frontier = [start]
            while frontier:
                for nbr in neighbors[frontier.pop()]:
                    if nbr not in reached:
                        reached.add(nbr)
                        frontier.append(nbr)
            asns = frozenset(self.member_asn[m] for m in reached)
            for member in reached:
                cluster_asns[member] = asns
            sub_clusters.append(frozenset(reached))
        return SwitchGraphView(
            members, neighbors, tuple(sub_clusters), cluster_asns
        )

    def sub_clusters(self) -> List[FrozenSet[str]]:
        """Connected components (each is one sub-cluster), deterministic order."""
        return list(self.view().sub_clusters)

    def sub_cluster_of(self, member: str) -> FrozenSet[str]:
        """The connected component containing a member."""
        for comp in self.view().sub_clusters:
            if member in comp:
                return comp
        raise KeyError(f"not a member: {member!r}")

    def intra_link_name(self, a: str, b: str) -> Optional[str]:
        """Name of the up link between two members, or None."""
        link = self._adj.get(a, {}).get(b)
        return link[0] if link is not None and link[1] else None

    def up_neighbors(self, member: str) -> List[str]:
        """Members adjacent over currently-up links."""
        return list(self.view().neighbors[member])

    def __contains__(self, member: str) -> bool:
        return member in self.member_asn


@dataclass
class ASTopologyGraph:
    """The per-prefix transformed graph Dijkstra runs on.

    Directed graph over member names plus the virtual :data:`DEST` node:

    - ``member -> member`` edges (weight :data:`INTRA_WEIGHT`) for up
      intra-cluster links within one sub-cluster — ``neighbors``, shared
      with the :class:`SwitchGraphView` it was built from;
    - ``member -> DEST`` edges for usable egresses: local origination
      (weight 0) or a valid external route (weight 1 + AS-path length)
      — ``dest_edges``.

    ``egress_choice`` remembers, per member with a direct DEST edge, which
    concrete external route (or local origination) backs it, so the
    compiler and the advertisement builder can reconstruct real paths.
    """

    prefix: Prefix
    #: member names, sorted.
    members: Tuple[str, ...] = ()
    #: member -> up intra-cluster neighbours, sorted.
    neighbors: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: member -> (weight, "local" | "egress") of its edge to DEST.
    dest_edges: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: member -> ("local", None) or ("egress", ExternalRoute)
    egress_choice: Dict[str, Tuple[str, Optional[ExternalRoute]]] = field(
        default_factory=dict
    )

    @property
    def graph(self):
        """The same graph as a ``networkx.DiGraph`` (``weight`` / ``kind``
        edge attributes), derived on every access — for inspection and
        for checking Dijkstra against networkx, not for routing."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_node(DEST)
        graph.add_nodes_from(self.members)
        for member in self.members:
            for nbr in self.neighbors[member]:
                graph.add_edge(member, nbr, weight=INTRA_WEIGHT, kind="intra")
        for member, (weight, kind) in self.dest_edges.items():
            graph.add_edge(member, DEST, weight=weight, kind=kind)
        return graph


def build_as_topology(
    switch_graph: SwitchGraph,
    prefix: Prefix,
    external_routes: Iterable[ExternalRoute],
    originating_members: Iterable[str] = (),
) -> ASTopologyGraph:
    """Transform the switch graph into the AS topology graph for ``prefix``.

    The loop-avoidance rule: an external route learned at a peering of
    member ``m`` is usable only if its AS path contains no ASN of any
    member in ``m``'s *sub-cluster*.  (Its own ASN cannot appear — the
    speaker's per-session loop check already dropped that — but a path
    through a fellow sub-cluster member would re-enter this sub-cluster.)

    Weights: intra-cluster hop = 1; egress edge = ``EGRESS_BASE_COST`` +
    external AS-path length; local origination = 0.  This makes total
    weight equal to the AS-level hop count of the resulting route, so
    Dijkstra picks what BGP's shortest-AS-path step would, minus the
    exploration.
    """
    view = switch_graph.view()
    topo = ASTopologyGraph(prefix, view.members, view.neighbors)
    dest_edges = topo.dest_edges

    # Local originations beat any egress (weight 0).
    for member in sorted(set(originating_members)):
        if member not in switch_graph:
            raise KeyError(f"originating node is not a member: {member!r}")
        dest_edges[member] = (0.0, "local")
        topo.egress_choice[member] = ("local", None)

    # External egresses, best (lowest weight, then deterministic
    # tie-break) route per member: member -> (route key, route).
    best_per_member: Dict[str, Tuple[tuple, ExternalRoute]] = {}
    for route in external_routes:
        if route.prefix != prefix:
            continue
        member = route.peering.member
        cluster_asns = view.cluster_asns.get(member)
        if cluster_asns is None:
            continue  # not a member
        if not cluster_asns.isdisjoint(route.as_path.members):
            continue  # would re-enter this sub-cluster: loop risk
        key = _route_key(route)
        current = best_per_member.get(member)
        if current is None or key < current[0]:
            best_per_member[member] = (key, route)

    for member, (_, route) in best_per_member.items():
        if member in dest_edges:
            continue  # origination wins
        dest_edges[member] = (EGRESS_BASE_COST + route.path_len, "egress")
        topo.egress_choice[member] = ("egress", route)

    return topo


def _route_key(route: ExternalRoute):
    """Deterministic preference among a member's external routes: the
    legacy routers' LOCAL_PREF ladder first (customer, then peer, then
    provider), then the decision process's tie-breakers."""
    return (
        -LOCAL_PREF_BY_RELATIONSHIP[route.peering.relationship],
        route.path_len,
        int(route.origin),
        route.med,
        route.peering.external,
        tuple(route.as_path),
    )
