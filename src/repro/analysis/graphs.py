"""Network graph creation and structural metrics (paper §3).

"The framework supports tools for ... network graph creation."  These
helpers bridge :class:`~repro.topology.model.Topology` and live
:class:`~repro.net.network.Network` objects to networkx, and compute the
structural summaries an experimenter wants next to convergence numbers
(degree distribution, diameter, clustering, cut edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from ..topology.model import Topology

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["GraphSummary", "summarize_topology", "cut_links", "as_graph"]


@dataclass(frozen=True)
class GraphSummary:
    """Structural summary of an AS-level graph."""

    nodes: int
    edges: int
    min_degree: int
    mean_degree: float
    max_degree: int
    diameter: int
    avg_clustering: float
    connected: bool

    def describe(self) -> str:
        """Short human-readable summary."""
        return (
            f"{self.nodes} ASes, {self.edges} links, degree "
            f"{self.min_degree}/{self.mean_degree:.1f}/{self.max_degree} "
            f"(min/mean/max), diameter {self.diameter}, "
            f"clustering {self.avg_clustering:.2f}"
        )


def as_graph(topology: Topology) -> nx.Graph:
    """The topology as a networkx graph (thin alias of ``to_networkx``)."""
    return topology.to_networkx()


def summarize_topology(topology: Topology) -> GraphSummary:
    """Compute the structural summary (diameter is -1 if disconnected)."""
    import networkx as nx

    graph = topology.to_networkx()
    degrees = [d for _, d in graph.degree()]
    connected = nx.is_connected(graph) if len(graph) else False
    return GraphSummary(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        min_degree=min(degrees) if degrees else 0,
        mean_degree=sum(degrees) / len(degrees) if degrees else 0.0,
        max_degree=max(degrees) if degrees else 0,
        diameter=nx.diameter(graph) if connected else -1,
        avg_clustering=nx.average_clustering(graph) if len(graph) > 1 else 0.0,
        connected=connected,
    )


def cut_links(topology: Topology) -> List[Tuple[int, int]]:
    """Links whose failure partitions the AS graph (bridges).

    Useful for choosing interesting fail-over experiments: failing a
    bridge tests the sub-cluster machinery; failing a non-bridge tests
    plain re-routing.
    """
    import networkx as nx

    graph = topology.to_networkx()
    return sorted((min(a, b), max(a, b)) for a, b in nx.bridges(graph))
