"""Differential: the SDN cluster is one AS with no MRAI.

Kotronis et al. (arXiv:1611.02494) model a cluster of SDN-controlled
ASes as one AS.  Here that model is an oracle for the whole controller
path — speaker, controller, SDN switches and flow compilation — checked
against plain BGP: a hybrid clique of n ASes with k members withdraws a
prefix in the same number of MRAI rounds as a pure-BGP clique of
n - k + 1 ASes in which the members are one AS.  That AS, like the
cluster speaker, applies no MRAI, and it processes each UPDATE in a
fixed ``recompute_delay``, the controller's debounce.

Both sides run at MRAI 30 s with the jitter off, ``flat`` policy and
lean builds (no collector, so no collector record sets an instant).
Withdrawal time is compared in whole MRAI rounds, the settled routes
after ``prepare`` AS by AS with member ASNs mapped to the contracted
AS.  UPDATE counts differ (the cluster speaks from every member) and
are reported, not gated.  At seed 1:

    n   k   hybrid     contracted   rounds   UPDATEs hybrid/contracted
    6   1    90.57 s     91.07 s      3         84 / 92
    6   3    30.57 s     31.07 s      1         38 / 20
    8   1   150.57 s    151.07 s      5        221 / 284
    8   2   120.57 s    121.07 s      4        191 / 165
    8   4    60.57 s     61.07 s      2        105 / 48
    12  1   270.57 s    271.07 s      9        805 / 902
    12  3   210.58 s    211.07 s      7        688 / 574
    12  6   120.57 s    121.07 s      4        388 / 165
"""

import dataclasses

import pytest

from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    sdn_set_for,
)
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment
from repro.topology.builders import clique
from repro.topology.model import Topology

MRAI = 30.0
RECOMPUTE_DELAY = 0.5
SEED = 1
CASES = sorted({(n, k) for n in (6, 8, 12) for k in (1, n // 4, n // 2)})


def contract(topology, members):
    """``topology`` with ``members`` merged into one AS, numbered as its
    smallest member: the union of the members' external links, one per
    outside neighbour (the first, in link order).  Returns the contracted
    topology and the ASN map (members to the contracted AS, every other
    AS to itself)."""
    cluster = min(members)
    asn_map = {a: cluster if a in members else a for a in topology.asns}
    out = Topology(name=f"{topology.name}-contracted")
    for asn in sorted(set(asn_map.values())):
        out.add_as(asn)
    for link in topology.links:
        a, b = asn_map[link.a], asn_map[link.b]
        if a != b and out.link_between(a, b) is None:
            out.add_link(
                a, b, relationship=link.relationship, latency=link.latency
            )
    return out, asn_map


def config():
    base = paper_config(
        seed=SEED, mrai=MRAI, recompute_delay=RECOMPUTE_DELAY, lean=True
    )
    return dataclasses.replace(
        base, timers=dataclasses.replace(base.timers, mrai_jitter=0.0)
    )


def collapse(path, asn_map):
    """An AS path with member ASNs mapped, each run of one AS kept once."""
    out = []
    for asn in path:
        asn = asn_map.get(asn, asn)
        if not out or out[-1] != asn:
            out.append(asn)
    return tuple(out)


def settled_routes(exp, prefix, asn_map):
    """Every AS's best path to ``prefix``, contracted: a router's from
    its Loc-RIB, a member's from the controller's decision (its chain of
    member ASNs, then the egress route's path, less its own AS)."""
    routes = {}
    for asn in exp.topology.asns:
        node = exp.node(asn)
        if exp.is_sdn(asn):
            decisions = exp.controller.decisions.get(prefix, {})
            decision = decisions.get(node.name)
            if decision is None or not decision.reachable:
                path = None
            else:
                chain, egress = decision.as_chain, decision
                while egress.kind == "forward":
                    egress = decisions[egress.next_member]
                external = egress.route.as_path if egress.route else ()
                full = chain + tuple(external)
                path = collapse(full, asn_map)[1:]
        else:
            route = node.loc_rib.get(prefix)
            path = None if route is None else collapse(
                route.attrs.as_path, asn_map
            )
        routes.setdefault(asn_map.get(asn, asn), set()).add(path)
    return routes


class ContractedWithdrawal(WithdrawalScenario):
    """The withdrawal, with the contracted AS's router on the cluster's
    timers: no MRAI, a fixed processing delay of the recompute delay."""

    def __init__(self, cluster):
        super().__init__()
        self.cluster = cluster

    def configure(self, exp):
        router = exp.node(self.cluster)
        router.timers = dataclasses.replace(
            router.timers, mrai=0.0,
            proc_delay_min=RECOMPUTE_DELAY, proc_delay_max=RECOMPUTE_DELAY,
        )
        for session in router.sessions.values():
            session.timers = router.timers


def withdrawal(scenario, topology, members, asn_map):
    """(settled routes after ``prepare``, withdrawal time, UPDATEs sent)."""
    exp = Experiment(
        topology, sdn_members=members, config=config(), name=scenario.name
    ).build()
    try:
        scenario.configure(exp)
        exp.start()
        scenario.prepare(exp)
        routes = settled_routes(exp, scenario.prefix, asn_map)
        m = measure_event(exp, lambda: scenario.event(exp))
        return routes, m.convergence_time, m.updates_tx
    finally:
        exp.close()


@pytest.mark.parametrize("n,k", CASES, ids=[f"n{n}-k{k}" for n, k in CASES])
def test_a_cluster_withdraws_like_one_as_without_mrai(n, k):
    scenario = WithdrawalScenario()
    topology = clique(n)
    members = sdn_set_for(topology, k, scenario.reserved_legacy)
    contracted, asn_map = contract(topology, members)
    assert len(contracted) == n - k + 1
    assert len(contracted.links) == (n - k + 1) * (n - k) // 2

    hybrid_routes, t_hybrid, tx_hybrid = withdrawal(
        scenario, topology, members, asn_map
    )
    bgp_routes, t_bgp, tx_bgp = withdrawal(
        ContractedWithdrawal(min(members)), contracted, frozenset(), {}
    )
    report = (
        f"n={n} k={k}: hybrid {t_hybrid:.2f}s ({tx_hybrid} UPDATEs), "
        f"contracted {t_bgp:.2f}s ({tx_bgp} UPDATEs)"
    )
    assert all(len(paths) == 1 for paths in hybrid_routes.values()), (
        f"members settle on different routes: {hybrid_routes}"
    )
    assert hybrid_routes == bgp_routes, report
    assert int(t_hybrid // MRAI) == int(t_bgp // MRAI), report
