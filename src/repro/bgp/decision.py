"""The BGP decision process (RFC 4271 §9.1.2, eBGP subset).

Given the candidate routes for one prefix (local + every peer's
Adj-RIB-In entry), pick the best:

1. highest LOCAL_PREF;
2. locally-originated beats learned (Quagga's "weight" effect);
3. shortest AS_PATH;
4. lowest ORIGIN (IGP < EGP < INCOMPLETE);
5. lowest MED, compared across all neighbors (Quagga's
   ``bgp always-compare-med``);
6. lowest peer AS number;  7. lowest peer name (router-id stand-in).

Steps 6-7 are the deterministic tie-breakers that make runs reproducible.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..net.addr import Prefix
from .rib import LocRib, Route

__all__ = [
    "best_route",
    "rank_routes",
    "route_sort_key",
    "full_scan_best",
    "verify_loc_rib",
]


def route_sort_key(route: Route):
    """Sort key such that the minimum is the best route."""
    attrs = route.attrs
    return (
        -attrs.local_pref,
        0 if route.is_local else 1,
        attrs.as_path.length,
        int(attrs.origin),
        attrs.med,
        route.peer_asn,
        route.peer_name,
    )


def best_route(candidates: Iterable[Route]) -> Optional[Route]:
    """The winner among ``candidates``, or None when there are none."""
    best: Optional[Route] = None
    best_key = None
    for route in candidates:
        key = route_sort_key(route)
        if best is None or key < best_key:
            best, best_key = route, key
    return best


def rank_routes(candidates: Iterable[Route]) -> List[Route]:
    """All candidates, best first (for diagnostics / 'show ip bgp')."""
    return sorted(candidates, key=route_sort_key)


def full_scan_best(
    candidates_fn: Callable[[Prefix], Iterable[Route]],
    prefixes: Iterable[Prefix],
) -> Dict[Prefix, Route]:
    """Reference decision process: best route per prefix by full scan.

    This is the oracle the incremental process is verified against —
    it knows nothing about dirty sets or indexes, it just asks
    ``candidates_fn`` for every prefix and picks the winner.
    """
    best: Dict[Prefix, Route] = {}
    for prefix in prefixes:
        winner = best_route(candidates_fn(prefix))
        if winner is not None:
            best[prefix] = winner
    return best


def verify_loc_rib(
    loc_rib: LocRib,
    candidates_fn: Callable[[Prefix], Iterable[Route]],
    prefixes: Iterable[Prefix],
) -> List[str]:
    """Differential oracle: mismatches between a Loc-RIB and a full scan.

    Returns human-readable discrepancy strings (empty list = the
    incremental process converged to exactly the full-scan answer).
    Compares winners by attributes *and* provenance (peer), the same
    identity :meth:`LocRib.set_best` uses.
    """
    expected = full_scan_best(candidates_fn, prefixes)
    problems: List[str] = []
    for prefix in sorted(set(expected) | set(loc_rib.prefixes())):
        want = expected.get(prefix)
        got = loc_rib.get(prefix)
        if want is None and got is not None:
            problems.append(f"{prefix}: loc-rib has {got!r}, full scan has none")
        elif want is not None and got is None:
            problems.append(f"{prefix}: loc-rib empty, full scan picks {want!r}")
        elif want is not None and got is not None:
            if want.attrs != got.attrs or want.peer_asn != got.peer_asn:
                problems.append(
                    f"{prefix}: loc-rib {got!r} != full scan {want!r}"
                )
    return problems
