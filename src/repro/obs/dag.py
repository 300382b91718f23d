"""Provenance DAG — causal queries over a run's span set.

Built from the spans a :class:`~repro.obs.spans.SpanTracker` collected
(or their JSON dict form, straight from a cache payload), the DAG
answers the explanatory questions the paper's counters cannot:

- which root event caused a given RIB/FIB change (``subtree``),
- when each AS last changed state because of a root event
  (``per_node_instants`` — the per-AS convergence instants),
- how much path exploration a withdrawal triggered
  (``path_exploration`` — decisions per (node, prefix)),
- how long updates sat in MRAI gates (``mrai_wait_total``),
- how widely each transmitted update fanned out (``fanout``).

Maxima over the route-affecting spans of a root's subtree equal the
streaming :class:`~repro.framework.convergence.MeasurementWindow`
readings exactly — one span per route-affecting record is the invariant
that makes them agree, tested in ``tests/obs``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..eventsim.bus import ROUTE_AFFECTING, STATE_CHANGING
from .spans import Span

__all__ = ["ProvenanceDAG", "STATE_CHANGING"]


class ProvenanceDAG:
    """Indexed view over a run's spans.

    The structure is a forest: every span has at most one parent, every
    root is its own cause.  "DAG" refers to the causal *event* graph the
    forest encodes — a message can have many downstream consequences but
    exactly one proximate trigger, which is what the parent edge records.
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        """``spans`` come in span-id order, as a
        :class:`~repro.obs.spans.SpanTracker` collects them."""
        self.spans: List[Span] = list(spans)
        self.by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        self.children: Dict[int, List[int]] = {}
        for span in self.spans:
            if span.parent_id is not None and span.parent_id in self.by_id:
                self.children.setdefault(span.parent_id, []).append(
                    span.span_id
                )

    @classmethod
    def from_dicts(cls, payloads: Iterable[Dict[str, Any]]) -> "ProvenanceDAG":
        """Build from JSON-ready span dicts (cache / JSONL form), in any
        order; the spans read the dicts' ``data`` in place, as every DAG
        query does."""
        return cls(
            sorted(map(Span.from_dict, payloads), key=lambda s: s.span_id)
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def roots(
        self, *, since: Optional[float] = None, category: Optional[str] = None
    ) -> List[Span]:
        """Root-cause spans, optionally filtered by time and category."""
        out = []
        for span in self.spans:
            if span.parent_id is not None:
                continue
            if since is not None and span.t_start < since:
                continue
            if category is not None and span.category != category:
                continue
            out.append(span)
        return out

    def subtree(self, root_id: int) -> Iterator[Span]:
        """All spans caused (transitively) by ``root_id``, including it.

        Deterministic order: depth-first, children in span-id order.
        """
        if root_id not in self.by_id:
            raise KeyError(f"unknown span id {root_id}")
        stack = [root_id]
        while stack:
            span_id = stack.pop()
            yield self.by_id[span_id]
            stack.extend(reversed(self.children.get(span_id, ())))

    def parent_chain(self, span_id: int) -> List[Span]:
        """The path from a span back to its root cause (span first)."""
        chain = []
        current: Optional[int] = span_id
        while current is not None:
            span = self.by_id[current]
            chain.append(span)
            current = span.parent_id
        return chain

    # ------------------------------------------------------------------
    # convergence instants
    # ------------------------------------------------------------------
    def per_node_instants(
        self, root_id: int, *, categories=ROUTE_AFFECTING
    ) -> Dict[str, float]:
        """Last matching-span instant per node within a root's subtree.

        With the default categories these are the per-AS convergence
        instants of the root event: the moment after which that AS saw
        no further route-affecting activity attributable to it.
        """
        instants: Dict[str, float] = {}
        for span in self.subtree(root_id):
            if span.category in categories:
                prev = instants.get(span.node)
                if prev is None or span.t_end > prev:
                    instants[span.node] = span.t_end
        return instants

    def convergence_instant(self, root_id: int) -> float:
        """Timestamp of the last route-affecting consequence of a root.

        Equals the ``t_converged`` a measurement window opened at the
        root reads, when the root is the only event active in it.
        """
        root = self.by_id[root_id]
        instants = self.per_node_instants(root_id)
        return max(instants.values()) if instants else root.t_end

    def state_instant(self, root_id: int) -> float:
        """Timestamp of the last actual state change caused by a root."""
        root = self.by_id[root_id]
        instants = self.per_node_instants(
            root_id, categories=STATE_CHANGING
        )
        return max(instants.values()) if instants else root.t_end

    # ------------------------------------------------------------------
    # explanatory metrics
    # ------------------------------------------------------------------
    def path_exploration(self, root_id: int) -> Dict[str, Dict[str, int]]:
        """Decision count per (prefix, node) in a root's subtree.

        Each BGP decision a node makes for a prefix beyond its first is
        path exploration — the transient alternatives tried before the
        final route sticks (the effect centralization suppresses).
        """
        out: Dict[str, Dict[str, int]] = {}
        for span in self.subtree(root_id):
            if span.category != "bgp.decision":
                continue
            prefix = str(span.data.get("prefix"))
            per_node = out.setdefault(prefix, {})
            per_node[span.node] = per_node.get(span.node, 0) + 1
        return out

    def path_exploration_depth(self, root_id: int) -> Dict[str, int]:
        """Max decisions any single node made per prefix (depth proxy)."""
        return {
            prefix: max(per_node.values())
            for prefix, per_node in self.path_exploration(root_id).items()
        }

    def mrai_wait_total(self, root_id: int) -> float:
        """Total seconds updates in this tree waited in MRAI gates."""
        return sum(
            float(span.data.get("mrai_wait", 0.0))
            for span in self.subtree(root_id)
            if span.category == "bgp.update.tx"
        )

    def fanout(self, root_id: int) -> Dict[int, int]:
        """Receivers per transmitted update (tx span id -> rx children)."""
        out: Dict[int, int] = {}
        for span in self.subtree(root_id):
            if span.category != "bgp.update.tx":
                continue
            out[span.span_id] = sum(
                1
                for child_id in self.children.get(span.span_id, ())
                if self.by_id[child_id].category == "bgp.update.rx"
            )
        return out

    def timeline(self, root_id: int) -> List[Span]:
        """The subtree in chronological order (ties by span id)."""
        return sorted(
            self.subtree(root_id), key=lambda s: (s.t_end, s.span_id)
        )

    def summary(self, root_id: int) -> Dict[str, Any]:
        """One root's derived metrics, JSON-ready (report input)."""
        root = self.by_id[root_id]
        spans = list(self.subtree(root_id))
        by_category: Dict[str, int] = {}
        for span in spans:
            by_category[span.category] = by_category.get(span.category, 0) + 1
        fanout = self.fanout(root_id)
        depth = self.path_exploration_depth(root_id)
        return {
            "root_id": root_id,
            "category": root.category,
            "node": root.node,
            "t_event": root.t_start,
            "t_converged": self.convergence_instant(root_id),
            "t_state_converged": self.state_instant(root_id),
            "spans": len(spans),
            "by_category": by_category,
            "per_node_instants": self.per_node_instants(root_id),
            "path_exploration_depth": depth,
            "mrai_wait_total": self.mrai_wait_total(root_id),
            "fanout_max": max(fanout.values()) if fanout else 0,
            "fanout_mean": (
                sum(fanout.values()) / len(fanout) if fanout else 0.0
            ),
        }

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"<ProvenanceDAG spans={len(self.spans)} "
            f"roots={len(self.roots())}>"
        )
