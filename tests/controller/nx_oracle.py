"""The networkx implementation of the controller's graphs, as an oracle.

Until the controller moved to plain dicts and a cached view, these were
the production ``SwitchGraph`` / ``build_as_topology`` /
``_reverse_dijkstra``: every recompute rebuilt an ``nx.Graph`` of up
links, its connected components and a per-prefix ``nx.DiGraph``, and
Dijkstra read weights back through ``graph.edges``.  They are kept here
unchanged so the replacements can be checked against them on random
clusters (``check_case``), from the tier-1 twin in
``test_graphs_oracle.py`` and the hypothesis property in
``tests/properties/test_controller_oracle.py``.
"""

import heapq
from types import SimpleNamespace

import networkx as nx

from repro.bgp.attrs import AsPath, Origin
from repro.bgp.policy import Relationship
from repro.controller.graphs import (
    DEST,
    ExternalRoute,
    Peering,
    SwitchGraph,
    _route_key,
    build_as_topology,
)
from repro.controller.routing import (
    _decision_for,
    _reverse_dijkstra,
    compute_decisions,
)
from repro.net.addr import Prefix

PFX = Prefix.parse("10.0.0.0/24")
OTHER_PFX = Prefix.parse("10.9.0.0/24")


class NxSwitchGraph:
    """The switch graph on an ``nx.Graph``, re-derived on every query."""

    def __init__(self):
        self._graph = nx.Graph()
        self.member_asn = {}

    def add_member(self, name, asn):
        self.member_asn[name] = asn
        self._graph.add_node(name)

    def members(self):
        return sorted(self._graph.nodes)

    def add_intra_link(self, a, b, link_name):
        if a not in self.member_asn or b not in self.member_asn:
            raise KeyError(f"both endpoints must be members: {a}, {b}")
        self._graph.add_edge(a, b, link_name=link_name, up=True)

    def set_link_state(self, a, b, up):
        if not self._graph.has_edge(a, b):
            return False
        self._graph.edges[a, b]["up"] = up
        return True

    def up_graph(self):
        up = nx.Graph()
        up.add_nodes_from(self._graph.nodes)
        for a, b, data in self._graph.edges(data=True):
            if data.get("up", True):
                up.add_edge(a, b, **data)
        return up

    def sub_clusters(self):
        comps = [frozenset(c) for c in nx.connected_components(self.up_graph())]
        return sorted(comps, key=lambda c: sorted(c)[0])

    def intra_link_name(self, a, b):
        if self._graph.has_edge(a, b) and self._graph.edges[a, b].get("up", True):
            return self._graph.edges[a, b]["link_name"]
        return None

    def up_neighbors(self, member):
        out = []
        for nbr in self._graph.neighbors(member):
            if self._graph.edges[member, nbr].get("up", True):
                out.append(nbr)
        return sorted(out)

    def __contains__(self, member):
        return member in self.member_asn


def nx_build_as_topology(
    switch_graph, prefix, external_routes, originating_members=(),
):
    """``(graph, egress_choice)`` the way the controller used to build them."""
    graph = nx.DiGraph()
    egress_choice = {}
    graph.add_node(DEST)
    sub_clusters = switch_graph.sub_clusters()
    asn_of_component = {
        comp: {switch_graph.member_asn[m] for m in comp} for comp in sub_clusters
    }
    component_of = {}
    for comp in sub_clusters:
        for member in comp:
            component_of[member] = comp

    for member in switch_graph.members():
        graph.add_node(member)

    for member in switch_graph.members():
        for nbr in switch_graph.up_neighbors(member):
            graph.add_edge(member, nbr, weight=1.0, kind="intra")

    for member in sorted(set(originating_members)):
        if member not in switch_graph:
            raise KeyError(f"originating node is not a member: {member!r}")
        graph.add_edge(member, DEST, weight=0.0, kind="local")
        egress_choice[member] = ("local", None)

    best_per_member = {}
    for route in external_routes:
        if route.prefix != prefix:
            continue
        member = route.peering.member
        if member not in switch_graph:
            continue
        cluster_asns = asn_of_component[component_of[member]]
        if any(route.as_path.contains(asn) for asn in cluster_asns):
            continue
        current = best_per_member.get(member)
        if current is None or _route_key(route) < _route_key(current):
            best_per_member[member] = route

    for member, route in best_per_member.items():
        if egress_choice.get(member, (None, None))[0] == "local":
            continue
        graph.add_edge(
            member, DEST,
            weight=1.0 + route.path_len,
            kind="egress",
        )
        egress_choice[member] = ("egress", route)

    return graph, egress_choice


def nx_reverse_dijkstra(graph):
    """Distances to DEST and best successors, read off the ``DiGraph``."""
    dist = {DEST: 0.0}
    succ = {}
    heap = [(0.0, DEST)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for pred in graph.predecessors(node):
            weight = graph.edges[pred, node]["weight"]
            cand = d + weight
            if pred not in dist or cand < dist[pred] - 1e-12:
                dist[pred] = cand
                succ[pred] = node
                heapq.heappush(heap, (cand, pred))
            elif abs(cand - dist[pred]) <= 1e-12:
                if node < succ.get(pred, "￿"):
                    succ[pred] = node
    return dist, succ


# ----------------------------------------------------------------------
# random clusters
# ----------------------------------------------------------------------
def random_case(rng):
    """One seeded cluster scenario, as plain data.

    3-12 members on a random intra-cluster graph; a sequence of link
    flips (so sub-clusters split and re-merge between recomputes);
    originations; external routes for the prefix — some re-entering the
    learning member's own sub-cluster, some crossing *other* members
    (a different sub-cluster once links are down), many of equal length
    so ties decide — plus routes for another prefix and at a non-member.
    """
    n = rng.randint(3, 12)
    members = [f"m{i:02d}" for i in range(n)]
    rng.shuffle(members)  # registration order is not name order
    asn = {name: 100 + int(name[1:]) for name in members}
    pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
    links = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * n)))
    flips = [
        (rng.choice(links), rng.random() < 0.5)
        for _ in range(rng.randint(0, 6) if links else 0)
    ]
    originations = rng.sample(members, rng.choice([0, 0, 1, 2]))
    routes = []
    for _ in range(rng.randint(0, 3 * n)):
        member = rng.choice(members + ["ghost"])
        length = rng.randint(1, 3)
        path = [rng.choice([7, 8, 9, 10]) for _ in range(length)]
        if rng.random() < 0.3:
            # cross another member's AS: a loop if it shares the
            # sub-cluster, usable otherwise
            path[rng.randrange(length)] = asn[rng.choice(members)]
        routes.append(
            dict(
                member=member,
                external=f"x{rng.randint(0, 3)}",
                path=tuple(path),
                rel=rng.choice(list(Relationship)),
                origin=rng.choice(list(Origin)),
                med=rng.choice([0, 0, 5]),
                prefix=OTHER_PFX if rng.random() < 0.1 else PFX,
            )
        )
    return dict(
        members=members, asn=asn, links=links, flips=flips,
        originations=originations, routes=routes,
    )


def _external_routes(case):
    return [
        ExternalRoute(
            peering=Peering(
                member=r["member"],
                member_asn=case["asn"].get(r["member"], 999),
                external=r["external"],
                phys_link_name=f"{r['member']}--{r['external']}",
                relationship=r["rel"],
            ),
            prefix=r["prefix"],
            as_path=AsPath.from_iterable(r["path"]),
            origin=r["origin"],
            med=r["med"],
        )
        for r in case["routes"]
    ]


def check_case(case):
    """Build the case on both implementations and compare everything a
    recompute produces, initially and after every link flip."""
    new, old = SwitchGraph(), NxSwitchGraph()
    for graph in (new, old):
        for name in case["members"]:
            graph.add_member(name, case["asn"][name])
        for a, b in case["links"]:
            graph.add_intra_link(a, b, f"{a}--{b}")
    routes = _external_routes(case)
    _compare(new, old, routes, case)
    for (a, b), up in case["flips"]:
        assert new.set_link_state(a, b, up) is old.set_link_state(a, b, up)
        _compare(new, old, routes, case)


def _compare(new, old, routes, case):
    assert new.members() == old.members()
    assert new.sub_clusters() == old.sub_clusters()
    for member in case["members"]:
        assert new.up_neighbors(member) == old.up_neighbors(member)
        for other in case["members"]:
            assert new.intra_link_name(member, other) == old.intra_link_name(
                member, other
            )
    topo = build_as_topology(new, PFX, routes, case["originations"])
    graph, egress_choice = nx_build_as_topology(
        old, PFX, routes, case["originations"]
    )
    assert topo.egress_choice == egress_choice
    derived = topo.graph
    assert set(derived.nodes) == set(graph.nodes)
    assert {(u, v): d for u, v, d in derived.edges(data=True)} == {
        (u, v): d for u, v, d in graph.edges(data=True)
    }
    dist, succ = nx_reverse_dijkstra(graph)
    assert _reverse_dijkstra(topo) == (dist, succ)
    # decisions (kind, next hop, route, distance, as_chain) derived from
    # the oracle's Dijkstra through the unchanged decision builder
    oracle_topo = SimpleNamespace(egress_choice=egress_choice)
    expected = {}
    for member in old.members():
        if member not in dist:
            expected[member] = None
        else:
            expected[member] = _decision_for(
                member, oracle_topo, dist, succ, old.member_asn
            )
    decisions = compute_decisions(topo, new.member_asn)
    assert sorted(decisions) == sorted(expected)
    for member, decision in decisions.items():
        if expected[member] is None:
            assert decision.kind == "unreachable"
        else:
            assert decision == expected[member]
