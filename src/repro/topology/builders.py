"""Artificial topology builders (paper §2: "topologies based on ...
theoretical models").

All builders return :class:`~repro.topology.model.Topology` objects with
1-based consecutive AS numbers and FLAT relationships (the setting of the
paper's clique experiments); random models take explicit seeds so every
experiment is reproducible.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..bgp.policy import Relationship
from .model import Topology, TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "clique",
    "line",
    "ring",
    "star",
    "binary_tree",
    "erdos_renyi",
    "barabasi_albert",
    "from_networkx",
]

DEFAULT_LATENCY = 0.01


def clique(n: int, *, latency: float = DEFAULT_LATENCY) -> Topology:
    """Full mesh of ``n`` ASes — the paper's evaluation topology."""
    if n < 2:
        raise TopologyError(f"clique needs >= 2 ASes: {n}")
    topo = Topology(name=f"clique{n}")
    for asn in range(1, n + 1):
        topo.add_as(asn)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            topo.add_link(a, b, latency=latency)
    return topo


def line(n: int, *, latency: float = DEFAULT_LATENCY) -> Topology:
    """A chain as1 - as2 - ... - asN."""
    if n < 2:
        raise TopologyError(f"line needs >= 2 ASes: {n}")
    topo = Topology(name=f"line{n}")
    for asn in range(1, n + 1):
        topo.add_as(asn)
    for asn in range(1, n):
        topo.add_link(asn, asn + 1, latency=latency)
    return topo


def ring(n: int, *, latency: float = DEFAULT_LATENCY) -> Topology:
    """A cycle of ``n`` ASes."""
    if n < 3:
        raise TopologyError(f"ring needs >= 3 ASes: {n}")
    topo = line(n, latency=latency)
    topo.name = f"ring{n}"
    topo.add_link(n, 1, latency=latency)
    return topo


def star(n: int, *, latency: float = DEFAULT_LATENCY) -> Topology:
    """AS1 at the hub, ``n - 1`` spokes (hub provides transit: C2P)."""
    if n < 2:
        raise TopologyError(f"star needs >= 2 ASes: {n}")
    topo = Topology(name=f"star{n}")
    for asn in range(1, n + 1):
        topo.add_as(asn, role="hub" if asn == 1 else "stub")
    for asn in range(2, n + 1):
        topo.add_link(1, asn, relationship=Relationship.CUSTOMER, latency=latency)
    return topo


def binary_tree(depth: int, *, latency: float = DEFAULT_LATENCY) -> Topology:
    """Complete binary tree; parents are providers of their children."""
    if depth < 1:
        raise TopologyError(f"tree needs depth >= 1: {depth}")
    n = (1 << (depth + 1)) - 1
    topo = Topology(name=f"tree-d{depth}")
    for asn in range(1, n + 1):
        topo.add_as(asn, role="root" if asn == 1 else "")
    for asn in range(1, n + 1):
        for child in (2 * asn, 2 * asn + 1):
            if child <= n:
                topo.add_link(
                    asn, child,
                    relationship=Relationship.CUSTOMER, latency=latency,
                )
    return topo


def erdos_renyi(
    n: int,
    p: float,
    *,
    seed: int = 0,
    latency: float = DEFAULT_LATENCY,
    ensure_connected: bool = True,
) -> Topology:
    """G(n, p) random graph, optionally patched to be connected.

    Connectivity patching links each extra component to the first one
    with a single edge (deterministic given the seed), so the emulated
    network is usable while the degree distribution stays ER-like.
    """
    if not 0.0 <= p <= 1.0:
        raise TopologyError(f"p must be in [0, 1]: {p}")
    import networkx as nx

    graph = nx.gnp_random_graph(n, p, seed=seed)
    if ensure_connected and n > 0:
        components = [sorted(c) for c in nx.connected_components(graph)]
        components.sort()
        anchor = components[0][0]
        for comp in components[1:]:
            graph.add_edge(anchor, comp[0])
    topo = from_networkx(graph, name=f"er{n}-p{p}", latency=latency)
    return topo


def barabasi_albert(
    n: int,
    m: int = 2,
    *,
    seed: int = 0,
    latency: float = DEFAULT_LATENCY,
) -> Topology:
    """Preferential-attachment graph — the classic AS-like degree model."""
    if n <= m:
        raise TopologyError(f"need n > m: n={n}, m={m}")
    import networkx as nx

    graph = nx.barabasi_albert_graph(n, m, seed=seed)
    return from_networkx(graph, name=f"ba{n}-m{m}", latency=latency)


def from_networkx(
    graph: nx.Graph,
    *,
    name: str = "graph",
    latency: float = DEFAULT_LATENCY,
    relationship: Relationship = Relationship.FLAT,
) -> Topology:
    """Convert any simple graph; nodes are renumbered to ASNs 1..n."""
    topo = Topology(name=name)
    mapping = {}
    for i, node in enumerate(sorted(graph.nodes, key=str), start=1):
        mapping[node] = i
        topo.add_as(i, name=f"as{i}")
    for u, v in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]))):
        a, b = mapping[u], mapping[v]
        if a == b:
            continue
        topo.add_link(min(a, b), max(a, b), relationship=relationship, latency=latency)
    return topo
