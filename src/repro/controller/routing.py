"""Best-path computation on the AS topology graph (paper §3).

"Best path calculations are based on the Dijkstra algorithm, running on
the AS topology graph."  We run one reverse Dijkstra from the virtual
destination node, yielding every member's distance and successor in one
pass, then translate successors into per-member routing decisions.

Determinism: the priority queue orders by (distance, node name), and
ties among equal-cost successors break on (successor's distance,
successor name), so repeated runs and different dict orders always yield
identical routing — a property the tests assert.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from .graphs import DEST, INTRA_WEIGHT, ASTopologyGraph, ExternalRoute

__all__ = ["MemberDecision", "compute_decisions", "decision_path"]


@dataclass(frozen=True)
class MemberDecision:
    """How one member switch reaches the prefix.

    ``kind`` is one of:

    - ``"local"`` — the member originates the prefix (deliver locally);
    - ``"egress"`` — leave the cluster via ``route.peering``;
    - ``"forward"`` — hand over to neighbouring member ``next_member``;
    - ``"unreachable"`` — no path; the compiler removes flow rules.

    ``distance`` is the Dijkstra cost (AS-level hop count with default
    weights); ``as_chain`` is the sequence of member ASNs from this
    member to (and including) the egress/originating member — the part
    of the AS path inside the cluster, used when re-advertising so the
    cluster stays transparent to the legacy world.
    """

    member: str
    kind: str
    next_member: Optional[str] = None
    route: Optional[ExternalRoute] = None
    distance: float = float("inf")
    as_chain: Tuple[int, ...] = ()

    @property
    def reachable(self) -> bool:
        """True unless the decision is 'unreachable'."""
        return self.kind != "unreachable"


def compute_decisions(topo: ASTopologyGraph, member_asn: Dict[str, int]) -> Dict[str, MemberDecision]:
    """Run reverse Dijkstra from DEST and derive every member's decision."""
    dist, succ = _reverse_dijkstra(topo)
    decisions: Dict[str, MemberDecision] = {}
    for member in topo.members:
        if member not in dist:
            decisions[member] = MemberDecision(member, "unreachable")
            continue
        decisions[member] = _decision_for(member, topo, dist, succ, member_asn)
    return decisions


def _reverse_dijkstra(
    topo: ASTopologyGraph,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Distances to DEST and each node's best successor toward it.

    Edges in the AS topology graph point toward DEST; we relax them in
    reverse (for each edge u->v, knowing dist(v) improves dist(u)).
    Intra-cluster links are symmetric, so a member's predecessors are
    its neighbours; DEST's are the members holding a ``dest_edges``
    entry.
    """
    neighbors = topo.neighbors
    dist: Dict[str, float] = {DEST: 0.0}
    succ: Dict[str, str] = {}
    # (distance, node) heap; name is the deterministic tie-breaker.
    heap: List[Tuple[float, str]] = [(0.0, DEST)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == DEST:
            incoming = (
                (member, edge[0]) for member, edge in topo.dest_edges.items()
            )
        else:
            incoming = zip(neighbors[node], repeat(INTRA_WEIGHT))
        for pred, weight in incoming:
            cand = d + weight
            if pred not in dist or cand < dist[pred] - 1e-12:
                dist[pred] = cand
                succ[pred] = node
                heapq.heappush(heap, (cand, pred))
            elif abs(cand - dist[pred]) <= 1e-12:
                # Equal cost: keep the lexicographically smallest
                # successor so routing is order-independent.
                if node < succ.get(pred, "￿"):
                    succ[pred] = node
    return dist, succ


def _decision_for(
    member: str,
    topo: ASTopologyGraph,
    dist: Dict[str, float],
    succ: Dict[str, str],
    member_asn: Dict[str, int],
) -> MemberDecision:
    nxt = succ.get(member)
    chain = _chain(member, succ, member_asn)
    if nxt == DEST:
        kind, route = topo.egress_choice[member]
        if kind == "local":
            return MemberDecision(
                member, "local", distance=dist[member], as_chain=chain
            )
        return MemberDecision(
            member, "egress", route=route, distance=dist[member], as_chain=chain
        )
    if nxt is None:
        return MemberDecision(member, "unreachable")
    return MemberDecision(
        member, "forward", next_member=nxt, distance=dist[member], as_chain=chain
    )


def _chain(
    member: str, succ: Dict[str, str], member_asn: Dict[str, int]
) -> Tuple[int, ...]:
    """Member-ASN sequence from ``member`` to its egress/origin member."""
    chain: List[int] = []
    node = member
    seen = set()
    while node != DEST and node is not None:
        if node in seen:  # pragma: no cover - Dijkstra successors are acyclic
            break
        seen.add(node)
        chain.append(member_asn[node])
        node = succ.get(node)
    return tuple(chain)


def decision_path(
    member: str, decisions: Dict[str, MemberDecision]
) -> List[str]:
    """Member names along ``member``'s forwarding path inside the cluster."""
    path = [member]
    node = decisions.get(member)
    while node is not None and node.kind == "forward":
        path.append(node.next_member)
        node = decisions.get(node.next_member)
    return path
