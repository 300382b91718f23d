"""BGP-4 implementation (the framework's Quagga substitute).

Public surface: :class:`BGPRouter` (one per AS), :class:`RouteCollector`
(monitoring), :class:`BGPTimers` (MRAI & friends), the routing policy
(the valley-free rule :func:`exports`, the LOCAL_PREF ladder, the
per-session :class:`PeerPolicy` and its templates
:func:`gao_rexford_policy` and :func:`transit_all_policy`), and the data
model (:class:`AsPath`, :class:`PathAttributes`, :class:`Route`).
"""

from .attrs import DEFAULT_LOCAL_PREF, AsPath, Origin, PathAttributes
from .collector import COLLECTOR_ASN, RouteCollector, collector_policy
from .decision import best_route, rank_routes
from .messages import BGPKeepalive, BGPMessage, BGPNotification, BGPOpen, BGPUpdate
from .policy import (
    LOCAL_PREF_BY_RELATIONSHIP,
    PeerPolicy,
    PolicyMode,
    Relationship,
    exports,
    gao_rexford_policy,
    transit_all_policy,
)
from .rib import AdjRibIn, AdjRibOut, LocRib, Route
from .router import BGPRouter
from .session import BGPSession, BGPTimers, SessionState

__all__ = [
    "DEFAULT_LOCAL_PREF",
    "AsPath",
    "Origin",
    "PathAttributes",
    "COLLECTOR_ASN",
    "RouteCollector",
    "collector_policy",
    "best_route",
    "rank_routes",
    "BGPKeepalive",
    "BGPMessage",
    "BGPNotification",
    "BGPOpen",
    "BGPUpdate",
    "LOCAL_PREF_BY_RELATIONSHIP",
    "PeerPolicy",
    "PolicyMode",
    "Relationship",
    "exports",
    "gao_rexford_policy",
    "transit_all_policy",
    "AdjRibIn",
    "AdjRibOut",
    "LocRib",
    "Route",
    "BGPRouter",
    "BGPSession",
    "BGPTimers",
    "SessionState",
]
