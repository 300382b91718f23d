"""Network container: nodes + links over one simulator.

This is the framework's equivalent of a Mininet ``net`` object — it owns
the device inventory, builds links, answers reachability queries against
the *data plane* (walking FIBs/flow tables hop by hop), and exports the
physical graph for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..eventsim import Simulator
from ..obs.spans import SPAN_CATEGORIES, SpanTracker
from .addr import IPv4Address
from .link import Link
from .node import Node

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Network", "PathTrace"]


@dataclass
class PathTrace:
    """Result of a data-plane forwarding walk (synthetic traceroute)."""

    reached: bool
    hops: List[str]
    reason: str = ""

    def __bool__(self) -> bool:
        return self.reached


class Network:
    """Inventory of emulated devices sharing one event loop and bus.

    The network builds the :class:`Simulator`, whose bus (``sim.bus``,
    also reachable as :attr:`bus`) every device publishes on.  It
    retains no record; the one subscriber it attaches is opt-in, the
    :class:`SpanTracker` of :meth:`enable_spans`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator(seed=seed)
        self.bus = self.sim.bus
        self.spans: Optional[SpanTracker] = None
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    def enable_spans(self) -> SpanTracker:
        """Subscribe a causal-provenance span tracker to the bus and make
        it the bus's causal context slot, ``bus.obs`` (idempotent).

        Every route-affecting record then becomes a :class:`Span` with a
        ``(cause_id, parent_id)`` lineage; components propagate causal
        context through message delivery and deferred work.  Purely
        passive — convergence results are bit-identical with spans on or
        off.
        """
        if self.spans is None:
            self.spans = SpanTracker(self.sim)
            self.bus.obs = self.spans
            self.bus.subscribe(
                self.spans.on_record, categories=SPAN_CATEGORIES,
                name="spans",
            )
        return self.spans

    def close(self) -> None:
        """The end of the network's life: cut the references that make
        its object graph cyclic, so refcounting frees it (idempotent).

        Every node drops its wiring (:meth:`Node.close`), every link
        its endpoints, and the simulator its pending events, hooks and
        subscribers (:meth:`Simulator.close`).  Counters, RIBs and the
        bus's counts stay readable; nothing can run again.
        """
        for node in self.nodes.values():
            node.close()
        for link in self.links:
            link.close()
        self.sim.close()

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node; rejects duplicate names."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name!r}")
        self.nodes[node.name] = node
        return node

    def get(self, name: str) -> Node:
        """Exact-match lookup; raises ``KeyError`` if absent."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"no such node: {name!r}") from None

    def add_link(self, a, b, **kwargs) -> Link:
        """Link two nodes (by object or name)."""
        node_a = a if isinstance(a, Node) else self.get(a)
        node_b = b if isinstance(b, Node) else self.get(b)
        link = Link(node_a, node_b, **kwargs)
        self.links.append(link)
        return link

    def link_between(self, a, b) -> Optional[Link]:
        """The link joining two nodes/ASes, if any."""
        node_a = a if isinstance(a, Node) else self.get(a)
        node_b = b if isinstance(b, Node) else self.get(b)
        for link in self.links:
            if link.connects(node_a, node_b):
                return link
        return None

    def nodes_of_type(self, cls: type) -> list:
        """All registered nodes of one class."""
        return [n for n in self.nodes.values() if isinstance(n, cls)]

    def set_link_quality(
        self,
        link: Link,
        *,
        latency: Optional[float] = None,
        loss: Optional[float] = None,
    ) -> Dict[str, float]:
        """Degrade or restore a link's quality, recorded on the bus.

        Returns the previous value of each changed attribute so callers
        (the fault engine's degradation windows) can restore it later.
        """
        previous: Dict[str, float] = {}
        if latency is not None:
            previous["latency"] = link.set_latency(latency)
        if loss is not None:
            previous["loss"] = link.set_loss(loss)
        if previous:
            self.bus.record(
                "link.quality", link.a.name,
                link=link.name, latency=link.latency, loss=link.loss,
            )
        return previous

    # ------------------------------------------------------------------
    # data-plane queries
    # ------------------------------------------------------------------
    def trace_path(
        self, src: Node, dst_address: IPv4Address, max_hops: int = 64
    ) -> PathTrace:
        """Walk FIBs from ``src`` toward ``dst_address`` without side effects.

        This inspects current forwarding state instantaneously (no
        virtual time passes), which is what the framework's "stable
        connectivity between all hosts" convergence check needs.
        """
        hops = [src.name]
        node = src
        seen = {src.name}
        for _ in range(max_hops):
            if node.address is not None and node.address == dst_address:
                return PathTrace(True, hops)
            entry = node.lookup_route(dst_address)
            if entry is None or entry.link is None:
                # No more-specific forwarding state: delivered here if the
                # node owns the address (or holds an explicit local entry).
                if node.owns_address(dst_address) or entry is not None:
                    return PathTrace(True, hops)
                return PathTrace(False, hops, reason=f"no route at {node.name}")
            if not entry.link.up:
                return PathTrace(False, hops, reason=f"link down at {node.name}")
            node = entry.link.other(node)
            if node.name in seen:
                hops.append(node.name)
                return PathTrace(False, hops, reason=f"loop at {node.name}")
            seen.add(node.name)
            hops.append(node.name)
        return PathTrace(False, hops, reason="hop limit")

    def all_pairs_reachable(
        self, nodes: Optional[Iterable[Node]] = None
    ) -> dict:
        """Reachability matrix over nodes' primary addresses.

        Returns ``{(src_name, dst_name): PathTrace}`` for ordered pairs of
        distinct nodes that have a primary address.
        """
        candidates = [
            n for n in (nodes if nodes is not None else self.nodes.values())
            if n.address is not None
        ]
        result = {}
        for src in candidates:
            for dst in candidates:
                if src is dst:
                    continue
                result[(src.name, dst.name)] = self.trace_path(src, dst.address)
        return result

    # ------------------------------------------------------------------
    # graph export
    # ------------------------------------------------------------------
    def to_graph(self, include_down: bool = False, kinds=("phys",)) -> nx.Graph:
        """The physical topology as a networkx graph (for analysis/viz)."""
        import networkx as nx

        graph = nx.Graph()
        for node in self.nodes.values():
            graph.add_node(node.name, kind=type(node).__name__)
        for link in self.links:
            if link.kind not in kinds:
                continue
            if not link.up and not include_down:
                continue
            graph.add_edge(
                link.a.name, link.b.name,
                latency=link.latency, name=link.name, up=link.up,
            )
        return graph

    def __repr__(self) -> str:
        return f"<Network nodes={len(self.nodes)} links={len(self.links)}>"
