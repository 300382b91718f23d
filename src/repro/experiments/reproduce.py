"""The committed paper results: ``benchmarks/results/<name>.txt``.

:data:`RESULTS` maps each result's name to a :class:`Reproduction` of
three functions:

- ``run(**runner)`` runs the experiment at its committed size (a
  16-AS clique or graph, fixed run counts and seeds) and returns
  ``(data, failures)``; ``runner`` (``workers``, ``cache``) reaches the
  sweeps that go through :func:`~.common.run_groups`, and ``failures``
  lists their trials that failed for good;
- ``report(data)`` formats the result file's text;
- ``check(data)`` returns the paper's qualitative shape as a list of
  problems — empty when the shape holds.

``repro reproduce [NAME...]`` runs them, rewrites the files under the
working directory and exits 1 when a check or a trial fails.  The
sizes are fixed on purpose: a file is only ever written at the size it
is committed at.  For small runs use the per-experiment commands
(``repro fig2 --n 6 --runs 2``, ...).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, NamedTuple

from ..analysis import ascii_boxplot_chart
from ..analysis.stats import boxplot_stats
from ..bgp.damping import DampingConfig
from ..bgp.router import BGPRouter
from ..framework import Experiment
from ..sdn.switch import SDNSwitch
from ..topology import clique
from .ablations import mrai_sweep, recompute_delay_sweep
from .announcement import announcement_sweep
from .common import (
    FailoverScenario, paper_config, run_scenario_once, sdn_set_for,
)
from .failover import failover_sweep
from .placement import placement_sweep
from .subcluster import run_subcluster_experiment
from .topologies import topology_family_sweep
from .withdrawal import withdrawal_sweep

__all__ = ["N", "RESULTS", "RESULTS_DIR", "Reproduction"]

#: clique / graph size of every committed result (the paper's).
N = 16
#: where ``repro reproduce`` writes, relative to the working directory.
RESULTS_DIR = "benchmarks/results"


class Reproduction(NamedTuple):
    """How one result file is produced, formatted and checked."""

    run: Callable[..., tuple]
    report: Callable[[Any], str]
    check: Callable[[Any], List[str]]


def _problems(claims: Dict[str, bool]) -> List[str]:
    """The descriptions of the claims that do not hold."""
    return [claim for claim, holds in claims.items() if not holds]


# Figure 1: the components of an example hybrid experiment.  Fig. 1 is
# the architecture picture, not a measurement: a full hybrid experiment
# assembles and converges with every pictured component working, and
# originates prefixes from both worlds.
def run_fig1(**_runner):
    exp = Experiment(
        clique(N),
        sdn_members=set(range(N // 2 + 1, N + 1)),
        config=paper_config(seed=1, mrai=30.0),
        name="fig1",
    ).start()
    exp.add_host(1)
    exp.add_host(N)
    exp.wait_converged()
    legacy_prefix = exp.announce(1)
    member_prefix = exp.announce(N)
    exp.wait_converged()
    return (exp, legacy_prefix, member_prefix), []


def report_fig1(data):
    exp = data[0]
    legacy = [x for x in exp.as_nodes() if isinstance(x, BGPRouter)]
    switches = [x for x in exp.as_nodes() if isinstance(x, SDNSwitch)]
    relay_links = [l for l in exp.net.links if l.kind == "relay"]
    control_links = [l for l in exp.net.links if l.kind == "control"]
    collected = exp.net.bus.count("collector.update")
    lines = [
        "Figure 1 components — example hybrid experiment "
        f"({len(exp.topology)}-AS clique, half SDN)",
        "",
        f"legacy BGP routers        : {len(legacy)}",
        f"SDN switches (cluster)    : {len(switches)}",
        f"controller members        : {len(exp.controller.members())}",
        f"cluster BGP speaker peers : {len(exp.speaker.peerings())} "
        f"(one per member<->legacy peering)",
        f"speaker relay links       : {len(relay_links)}",
        f"controller control links  : {len(control_links)}",
        f"route collector feed      : {collected} updates",
        f"monitoring hosts          : "
        f"{sum(len(h) for h in exp.hosts.values())}",
        f"flow rules on first switch: "
        f"{len(switches[0].flow_table)}",
        f"all AS pairs reachable    : {exp.all_reachable()}",
        f"settled at virtual time   : {exp.now:.1f}s",
    ]
    return "\n".join(lines)


def check_fig1(data):
    exp, legacy_prefix, member_prefix = data
    n = len(exp.topology)
    # the report has read the controller, the speaker and the collector
    return _problems({
        "the route collector heard updates": (
            exp.net.bus.count("collector.update") > 0
        ),
        "one speaker peering per member<->legacy pair": (
            len(exp.speaker.peerings()) == (n // 2) * (n - n // 2)
        ),
        "every speaker session is established": all(
            s.established for s in exp.speaker.sessions.values()
        ),
        "all AS pairs reachable": exp.all_reachable(),
        "the member's prefix reached a legacy AS": (
            exp.node(2).loc_rib.get(member_prefix) is not None
        ),
        "the legacy prefix reached a switch": (
            exp.node(n).lookup_route(legacy_prefix.host(0)) is not None
        ),
    })


# Figure 2: withdrawal convergence on a 16-AS clique versus the fraction
# of ASes with centralized route control, boxplots over 10 runs.  The
# paper's claim is the linearity, not the absolute seconds.
def run_fig2(**runner):
    result = withdrawal_sweep(n=N, runs=10, mrai=30.0, **runner)
    return result, result.failed_runs


def report_fig2(result):
    lines = [
        f"Figure 2 reproduction — withdrawal on a {result.n_ases}-AS clique",
        f"(MRAI 30s jittered, Quagga-paced withdrawals, "
        f"{len(result.points[0].runs)} runs/point)",
        "",
        f"{'SDN':>7} {'fraction':>9}  "
        f"{'min':>8} {'q1':>8} {'median':>8} {'q3':>8} {'max':>8} {'updates':>8}",
    ]
    for point in result.points:
        s = point.stats
        lines.append(
            f"{point.sdn_count:>4}/{result.n_ases:<2} {point.fraction:>9.2f}  "
            f"{s.minimum:>8.1f} {s.q1:>8.1f} {s.median:>8.1f} "
            f"{s.q3:>8.1f} {s.maximum:>8.1f} {point.median_updates:>8.0f}"
        )
    fit = result.fit()
    lines += [
        "",
        ascii_boxplot_chart(
            [(f"{p.sdn_count:2d}/{result.n_ases}", p.stats)
             for p in result.points],
            title="convergence time (s)",
        ),
        "",
        f"linear fit of medians: t = {fit.slope:.1f} * fraction "
        f"+ {fit.intercept:.1f}   R^2 = {fit.r_squared:.3f}",
        f"reduction at max deployment: {result.reduction_at_full():.1%}",
        "paper shape: linear decrease -> expect R^2 >~ 0.95 and slope < 0",
    ]
    return "\n".join(lines)


def check_fig2(result):
    medians = result.medians()
    fit = result.fit()
    return _problems({
        f"medians fall monotonically with deployment: {medians}": all(
            a > b for a, b in zip(medians, medians[1:])
        ),
        f"the linear fit decreases: {fit}": fit.is_decreasing,
        f"the trend is linear (R^2 > 0.9): {fit}": fit.r_squared > 0.9,
        "reduction at max deployment > 90%": result.reduction_at_full() > 0.9,
    })


# §4: "route fail-over ... did not show this linear improvement, but
# smaller reductions."  A dual-homed origin's primary gateway link
# fails; BGP explores the prepended backup's length gap in a bounded
# number of MRAI rounds, so convergence stays flat until the backup
# gateway itself joins the cluster.  Both metrics are reported:
# update activity (what a collector sees — the paper's measurement) and
# routing state (last FIB/decision change).
def run_failover(**runner):
    result = failover_sweep(
        n=N, sdn_counts=[0, 4, 8, 12, N - 2, N - 1], runs=5, mrai=30.0,
        **runner,
    )
    return result, result.failed_runs


def _failover_points(result):
    """``(sdn_count, activity stats, state stats)`` per sweep point."""
    return [
        (
            point.sdn_count,
            point.stats,
            boxplot_stats(
                [r.measurement.state_convergence_time for r in point.runs]
            ),
        )
        for point in result.points
    ]


def report_failover(result):
    points = _failover_points(result)
    lines = [
        f"§4 fail-over reproduction — dual-homed origin on a {N}-AS clique",
        "(backup path prepended x3; primary gateway link fails)",
        "",
        f"{'SDN':>7}  {'activity conv. median':>22}  {'state conv. median':>20}",
    ]
    for k, activity, state in points:
        lines.append(
            f"{k:>4}/{N:<2}  {activity.median:>20.1f}s  {state.median:>18.1f}s"
        )
    base = points[0][1].median
    best = min(p[1].median for p in points)
    lines += [
        "",
        f"activity-metric reduction at best point: {(base - best) / base:.1%}",
        "paper shape: no linear improvement; a bounded, smaller reduction",
        "(compare with Fig. 2's ~100% linear reduction).",
    ]
    return "\n".join(lines)


def check_failover(result):
    medians = result.medians()
    base = medians[0]
    reduction = (base - min(medians)) / base
    return _problems({
        f"some fail-over reduction (> 10%): {reduction:.1%}": reduction > 0.1,
        f"no collapse to ~0 (< 90%): {reduction:.1%}": reduction < 0.9,
        # bounded by the legacy gateways' MRAI rounds until the backup
        # gateway itself is centralized
        f"mid-sweep points barely improve (> 70% of base): {medians}": all(
            m > 0.7 * base for m in medians[1:-2]
        ),
    })


# §4: "route ... announcement experiments did not show this linear
# improvement, but smaller reductions."  A new prefix floods with no
# path exploration, so there is almost nothing to centralize away.
def run_announcement(**runner):
    result = announcement_sweep(n=N, runs=5, mrai=30.0, **runner)
    return result, result.failed_runs


def report_announcement(result):
    lines = [
        f"§4 announcement reproduction — new prefix on a "
        f"{result.n_ases}-AS clique (MRAI 30s)",
        "",
        f"{'SDN':>7} {'fraction':>9}  {'median':>8} {'max':>8} {'updates':>8}",
    ]
    for point in result.points:
        s = point.stats
        lines.append(
            f"{point.sdn_count:>4}/{result.n_ases:<2} {point.fraction:>9.2f}  "
            f"{s.median:>8.2f} {s.maximum:>8.2f} {point.median_updates:>8.0f}"
        )
    base = result.points[0].stats.median
    lines += [
        "",
        f"pure-BGP announcement converges in {base:.2f}s — a tiny fraction "
        f"of one MRAI (30s):",
        "flooding needs no exploration, so centralization has nothing to "
        "remove.",
        "paper shape: no linear improvement for announcements.",
    ]
    return "\n".join(lines)


def check_announcement(result):
    base = result.points[0].stats.median
    medians = result.medians()
    fit = result.fit()
    return _problems({
        f"pure BGP floods in under 5s: {base}": base < 5.0,
        f"no withdrawal-style collapse (spread < 30s): {medians}": (
            max(medians) - min(medians) < 30.0
        ),
        f"the trend is flat (|slope| < 30): {fit}": abs(fit.slope) < 30.0,
    })


# §3 insight: MRAI is the mechanism centralization bypasses.  Pure BGP
# shows Griffin & Premore's U (MRAI 0 floods updates and converges
# CPU-bound; large MRAI converges timer-bound); the half-SDN hybrid
# stays near the controller floor at every MRAI.
def run_mrai(**runner):
    points = mrai_sweep(
        n=N, mrai_values=(0.0, 5.0, 15.0, 30.0), sdn_count=N // 2, runs=5,
        **runner,
    )
    return points, [
        f for p in points for f in p.baseline.failures + p.deployed.failures
    ]


def report_mrai(points):
    lines = [
        "MRAI ablation — withdrawal convergence, pure BGP vs half-SDN",
        "",
        f"{'MRAI':>6}  {'pure med':>9} {'pure upd':>9}  "
        f"{'hybrid med':>11} {'hybrid upd':>11}  {'reduction':>10}",
    ]
    for p in points:
        lines.append(
            f"{p.mrai:>5.0f}s  {p.pure_bgp.median:>8.1f}s {p.pure_updates:>9.0f}  "
            f"{p.hybrid.median:>10.1f}s {p.hybrid_updates:>11.0f}  "
            f"{p.reduction:>9.1%}"
        )
    lines += [
        "",
        "shape: pure BGP shows the Griffin-Premore U (MRAI 0 floods updates",
        "and converges CPU-bound; large MRAI converges timer-bound); the",
        "hybrid stays near the controller floor, so centralization's win",
        "grows with MRAI — it removes exactly what rate limiting costs.",
    ]
    return "\n".join(lines)


def check_mrai(points):
    by_mrai = {p.mrai: p for p in points}
    pure = {mrai: p.pure_bgp.median for mrai, p in by_mrai.items()}
    gain = {
        mrai: p.pure_bgp.median - p.hybrid.median
        for mrai, p in by_mrai.items()
    }
    return _problems({
        "pure BGP slows from MRAI 5s to 30s": pure[30.0] > pure[5.0],
        "the win grows with MRAI (30s over 5s)": gain[30.0] > gain[5.0],
        "MRAI 0 floods updates (> 2x those at 5s)": (
            by_mrai[0.0].pure_updates > 2 * by_mrai[5.0].pure_updates
        ),
        # the flood is large enough to become CPU-bound
        "pure BGP is slower at MRAI 0 than at 5s": pure[0.0] > pure[5.0],
        "the hybrid rescues MRAI 0": by_mrai[0.0].hybrid.median < pure[0.0],
    })


# §3 insight: the controller's delayed recomputation.  Longer delays
# coalesce bursty input into fewer recomputations (stability) at the
# cost of a convergence floor (reaction latency).
def run_recompute(**runner):
    points = recompute_delay_sweep(
        n=N, delays=(0.0, 0.5, 2.0, 5.0, 15.0), sdn_count=N // 2, runs=5,
        **runner,
    )
    return points, [f for p in points for f in p.point.failures]


def report_recompute(points):
    lines = [
        "Delayed-recomputation ablation — withdrawal on a half-SDN clique",
        "",
        f"{'delay':>7}  {'convergence med':>16}  {'recomputations':>15}",
    ]
    for p in points:
        lines.append(
            f"{p.delay:>6.1f}s  {p.convergence.median:>15.1f}s  "
            f"{p.recomputations:>15.1f}"
        )
    lines += [
        "",
        "shape: recomputation count falls as the delay grows (bursts",
        "coalesce — the stability the paper wanted) while convergence",
        "time gains a floor proportional to the delay.",
    ]
    return "\n".join(lines)


def check_recompute(points):
    by_delay = {p.delay: p for p in points}
    counts = [p.recomputations for p in points]
    return _problems({
        "fewer recomputations at 15s than at 0s": (
            by_delay[15.0].recomputations < by_delay[0.0].recomputations
        ),
        f"recomputations never rise along the sweep: {counts}": all(
            a >= b - 1e-9 for a, b in zip(counts, counts[1:])
        ),
        "a 15s delay costs latency against 0.5s": (
            by_delay[15.0].convergence.median
            >= by_delay[0.5].convergence.median - 1.0
        ),
    })


# §2 design goal: disjoint sub-clusters under one controller.  Failing
# a bar-bell cluster's bridge splits it in two; all-pairs connectivity
# survives and cross-cluster traffic detours over legacy ASes.
def run_subcluster(**_runner):
    return [run_subcluster_experiment(seed=seed) for seed in range(5)], []


def report_subcluster(results):
    first = results[0]
    times = sorted(r.measurement.convergence_time for r in results)
    lines = [
        "Sub-cluster split — bar-bell cluster, bridge link fails",
        "",
        f"sub-clusters before : {first.sub_clusters_before}",
        f"sub-clusters after  : {first.sub_clusters_after}",
        f"reachable before    : {first.reachable_before}",
        f"reachable after     : {first.reachable_after}",
        f"cross-cluster path  : {' -> '.join(first.cross_path_after)}",
        f"convergence times   : {[round(t, 2) for t in times]}",
        "",
        "shape: the cluster splits in two, yet every AS can still reach",
        "every other AS — cross-side traffic rides the legacy detour, the",
        "paper's stated design goal for disjoint sub-clusters.",
    ]
    return "\n".join(lines)


def check_subcluster(results):
    legacy = {"as5", "as6", "as7", "as8"}
    return [
        f"run {i}: {problem}"
        for i, r in enumerate(results)
        for problem in _problems({
            "one cluster before the split": len(r.sub_clusters_before) == 1,
            "two sub-clusters after it": len(r.sub_clusters_after) == 2,
            "all pairs reachable before and after": (
                r.reachable_before and r.reachable_after
            ),
            f"the cross path detours over legacy ASes: {r.cross_path_after}":
                bool(legacy.intersection(r.cross_path_after)),
            "converges within 120s": r.measurement.convergence_time < 120,
        })
    ]


# §3 capability: data-driven and model topologies.  The same withdrawal
# on a clique, Barabási–Albert, synthetic CAIDA (Gao-Rexford) and
# synthetic iPlane graph, at 0% and 50% SDN.
def run_topologies(**runner):
    results = topology_family_sweep(n=N, sdn_fraction=0.5, runs=3, **runner)
    return results, [f for r in results for f in r.failures]


def report_topologies(results):
    lines = [
        "Topology-family sweep — withdrawal convergence, 0% vs 50% SDN",
        "",
        f"{'family':>16} {'ASes':>5} {'links':>6}  "
        f"{'pure BGP med':>13} {'hybrid med':>11} {'reduction':>10}",
    ]
    for r in results:
        if not (r.baseline.runs and r.deployed.runs):
            continue  # nothing to summarise: every trial failed
        lines.append(
            f"{r.family:>16} {r.n_ases:>5} {r.n_links:>6}  "
            f"{r.pure_bgp.median:>12.1f}s {r.hybrid.median:>10.1f}s "
            f"{r.reduction:>9.1%}"
        )
    lines += [
        "",
        "shape: the dense clique explores hardest and gains most from",
        "centralization; sparse/hierarchical graphs (BA, CAIDA with",
        "valley-free policies) explore less, so the absolute win shrinks.",
    ]
    return "\n".join(lines)


def check_topologies(results):
    by_family = {r.family: r for r in results}
    clique_result = by_family["clique"]
    worst = clique_result.pure_bgp.median
    return _problems({
        "the clique is the worst case for pure BGP": all(
            worst >= r.pure_bgp.median - 1e-9 for r in results
        ),
        "centralization helps the clique by > 30%": (
            clique_result.reduction > 0.3
        ),
        "every family converges within 1000s": all(
            r.pure_bgp.maximum < 1000 and r.hybrid.maximum < 1000
            for r in results
        ),
    })


# Extension: route-flap damping exacerbates convergence (Mao et al.,
# SIGCOMM 2002) — unless you centralize.  Path-exploration updates look
# like flapping to RFC 2439 damping, which suppresses the valid backup
# route; a centralized cluster emits no exploration churn and is immune.
#: RIPE-210-flavoured aggressive damping, half-life scaled to the
#: experiment's time frame.
AGGRESSIVE_DAMPING = DampingConfig(
    half_life=60.0,
    reuse_threshold=750.0,
    suppress_threshold=1500.0,
    withdrawal_penalty=1000.0,
    attribute_change_penalty=1000.0,
    max_suppress_time=240.0,
)


def run_damping(**_runner):
    cells = {}
    for damped in (False, True):
        for k in (0, N - 1):
            times = []
            for run_index in range(5):
                scenario = FailoverScenario()
                topology = scenario.topology(N)
                members = sdn_set_for(topology, k, scenario.reserved_legacy)
                config = paper_config(seed=700 + run_index)
                if damped:
                    config = replace(config, damping=AGGRESSIVE_DAMPING)
                m = run_scenario_once(scenario, topology, members, config)
                times.append(m.convergence_time)
            cells[(damped, k)] = boxplot_stats(times)
    return cells, []


def report_damping(cells):
    lines = [
        "Route-flap damping ablation — fail-over convergence (median)",
        "(Mao et al.'s exacerbation, and centralization's immunity to it)",
        "",
        f"{'':>16} {'no damping':>12} {'aggressive damping':>19}",
        f"{'pure BGP':>16} {cells[(False, 0)].median:>11.1f}s "
        f"{cells[(True, 0)].median:>18.1f}s",
        f"{f'{N - 1}/{N} SDN':>16} {cells[(False, N - 1)].median:>11.1f}s "
        f"{cells[(True, N - 1)].median:>18.1f}s",
        "",
        "shape: damping multiplies pure-BGP fail-over convergence (the",
        "exploration updates trip suppression of the valid backup route);",
        "the centralized cluster emits no exploration churn, so its",
        "convergence is identical with and without damping.",
    ]
    return "\n".join(lines)


def check_damping(cells):
    median = {key: stats.median for key, stats in cells.items()}
    return _problems({
        "damping slows pure-BGP fail-over by > 1.5x": (
            median[True, 0] > 1.5 * median[False, 0]
        ),
        "the centralized cluster is immune to damping": (
            median[True, N - 1] == median[False, N - 1]
        ),
        "the damped hybrid beats damped pure BGP by > 2x": (
            median[True, N - 1] < 0.5 * median[True, 0]
        ),
    })


# Extension: deployment placement on a degree-skewed (Barabási–Albert)
# graph.  Same budget (5 of 16 ASes), three strategies: hubs sit on the
# most exploration paths, so converting them wins.
def run_placement(**runner):
    results = placement_sweep(n=N, sdn_count=N // 3, runs=5, **runner)
    return results, [f for r in results for f in r.point.failures]


def report_placement(results):
    lines = [
        "Placement ablation — withdrawal on a Barabási-Albert graph,",
        f"fixed budget of {results[0].sdn_count} members",
        "",
        f"{'strategy':>12}  {'median conv.':>13}  {'mean member degree':>19}",
    ]
    for r in results:
        lines.append(
            f"{r.strategy:>12}  {r.convergence.median:>12.1f}s  "
            f"{r.mean_member_degree:>19.1f}"
        )
    lines += [
        "",
        "shape: the same budget spent on high-degree ASes removes far",
        "more MRAI-paced exploration than spent on stubs — incremental",
        "deployment should start at the hubs.",
    ]
    return "\n".join(lines)


def check_placement(results):
    by_strategy = {r.strategy: r for r in results}
    hubs = by_strategy["hubs-first"]
    stubs = by_strategy["stubs-first"]
    return _problems({
        "hubs-first beats stubs-first by > 20%: "
        f"{hubs.convergence.median} vs {stubs.convergence.median}": (
            hubs.convergence.median < 0.8 * stubs.convergence.median
        ),
        "hubs-first members have the higher mean degree": (
            hubs.mean_member_degree > stubs.mean_member_degree
        ),
    })


#: result name -> how ``benchmarks/results/<name>.txt`` is reproduced.
RESULTS: Dict[str, Reproduction] = {
    "fig1_components": Reproduction(run_fig1, report_fig1, check_fig1),
    "fig2_withdrawal": Reproduction(run_fig2, report_fig2, check_fig2),
    "sec4_failover":
        Reproduction(run_failover, report_failover, check_failover),
    "sec4_announcement": Reproduction(
        run_announcement, report_announcement, check_announcement),
    "ablation_mrai": Reproduction(run_mrai, report_mrai, check_mrai),
    "ablation_recompute":
        Reproduction(run_recompute, report_recompute, check_recompute),
    "subcluster":
        Reproduction(run_subcluster, report_subcluster, check_subcluster),
    "topologies":
        Reproduction(run_topologies, report_topologies, check_topologies),
    "ablation_damping":
        Reproduction(run_damping, report_damping, check_damping),
    "placement":
        Reproduction(run_placement, report_placement, check_placement),
}
