"""One-shot experiment reports.

``experiment_report`` condenses a finished (or running) experiment into
the text summary an experimenter wants at a glance: device inventory,
session health, per-node update counts, churn over time, connectivity,
and — when a cluster is present — controller statistics.  This is the
"concentrate on the experiment rather than the bookkeeping" tooling the
paper's objectives call for.

``provenance_report`` / ``provenance_markdown`` render the causal story
of one root event from a run's provenance spans: what it was, when each
AS converged because of it, how deep path exploration went, how long
updates sat in MRAI gates, and the chronological causal timeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..bgp.router import BGPRouter
from ..eventsim import TraceRecord
from ..framework.experiment import Experiment
from ..obs.dag import ProvenanceDAG
from ..obs.spans import Span
from ..sdn.switch import SDNSwitch
from .logs import churn_timeline, update_counts_by_node
from .viz import churn_sparkline

__all__ = [
    "experiment_report",
    "provenance_report",
    "provenance_markdown",
    "anatomy_of_spans",
]


def experiment_report(
    exp: Experiment,
    records: Sequence[TraceRecord],
    *,
    since: float = 0.0,
    churn_bin: float = 1.0,
    top_talkers: int = 5,
) -> str:
    """Render a human-readable status report for ``exp``.

    ``records`` are the bus records the update and churn sections read
    (:mod:`repro.analysis.logs`): e.g. a list subscribed to
    ``exp.net.bus`` between ``build()`` and ``start()``.
    """
    lines: List[str] = []
    lines.append(f"experiment {exp.name!r} @ t={exp.now:.1f}s")
    lines.append("=" * max(20, len(lines[0])))
    lines.extend(_inventory(exp))
    lines.extend(_sessions(exp))
    lines.extend(_updates(records, since, top_talkers))
    lines.extend(_churn(records, since, churn_bin))
    lines.extend(_connectivity(exp))
    if exp.controller is not None:
        lines.extend(_cluster(exp))
    return "\n".join(lines)


def _inventory(exp: Experiment) -> List[str]:
    legacy = [n for n in exp.as_nodes() if isinstance(n, BGPRouter)]
    switches = [n for n in exp.as_nodes() if isinstance(n, SDNSwitch)]
    host_count = sum(len(hosts) for hosts in exp.hosts.values())
    out = [
        "",
        "inventory:",
        f"  legacy routers : {len(legacy)}",
        f"  SDN switches   : {len(switches)}",
        f"  hosts          : {host_count}",
        f"  links          : {len(exp.net.links)} "
        f"({sum(1 for l in exp.net.links if not l.up)} down)",
    ]
    if exp.collector is not None:
        collected = exp.net.bus.count("collector.update")
        out.append(f"  collector feed : {collected} updates")
    return out


def _sessions(exp: Experiment) -> List[str]:
    total = established = 0
    for node in exp.as_nodes():
        if isinstance(node, BGPRouter):
            for session in node.sessions.values():
                if session.link.kind == "collector":
                    continue
                total += 1
                established += bool(session.established)
    speaker_total = speaker_up = 0
    if exp.speaker is not None:
        for session in exp.speaker.sessions.values():
            speaker_total += 1
            speaker_up += bool(session.established)
    out = [
        "",
        "BGP sessions:",
        f"  legacy         : {established}/{total} established",
    ]
    if speaker_total:
        out.append(f"  cluster speaker: {speaker_up}/{speaker_total} established")
    return out


def _updates(records, since: float, top_talkers: int) -> List[str]:
    counts = update_counts_by_node(records, since=since)
    total = sum(counts.values())
    out = ["", f"update activity since t={since:.1f}s: {total} updates sent"]
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])[:top_talkers]
    for node, count in ranked:
        out.append(f"  {node:<12} {count}")
    return out


def _churn(records, since: float, churn_bin: float) -> List[str]:
    timeline = churn_timeline(records, bin_size=churn_bin, since=since)
    return ["", "churn: " + churn_sparkline(timeline)]


def _connectivity(exp: Experiment) -> List[str]:
    matrix = exp.connectivity_matrix()
    broken = [(pair, t) for pair, t in matrix.items() if not t.reached]
    out = [
        "",
        f"connectivity: {len(matrix) - len(broken)}/{len(matrix)} "
        f"ordered AS pairs reachable",
    ]
    for (src, dst), walk in broken[:10]:
        out.append(f"  as{src} -/-> as{dst}: {walk.reason}")
    if len(broken) > 10:
        out.append(f"  ... {len(broken) - 10} more broken pairs")
    return out


# ----------------------------------------------------------------------
# provenance reports
# ----------------------------------------------------------------------
def _as_dag(spans) -> ProvenanceDAG:
    spans = list(spans)
    if spans and isinstance(spans[0], dict):
        return ProvenanceDAG.from_dicts(spans)
    return ProvenanceDAG(spans)


def _resolve_root(dag: ProvenanceDAG, root_id: Optional[int]) -> int:
    """Pick the root to report on: explicit id, else the root with the
    largest causal subtree (ties -> the later root)."""
    if root_id is not None:
        if root_id not in dag.by_id:
            raise KeyError(f"unknown span id {root_id}")
        # Reports accept any span: walk up to its root cause.
        return dag.parent_chain(root_id)[-1].span_id
    roots = dag.roots()
    if not roots:
        raise ValueError("no spans to report on")
    sizes = {r.span_id: sum(1 for _ in dag.subtree(r.span_id)) for r in roots}
    return max(roots, key=lambda r: (sizes[r.span_id], r.span_id)).span_id


def _span_line(span: Span, t_event: float) -> str:
    detail = ""
    if "prefix" in span.data:
        detail = f" {span.data['prefix']}"
    if "mrai_wait" in span.data and span.data["mrai_wait"] > 0:
        detail += f" (mrai_wait={span.data['mrai_wait']:.2f}s)"
    if "debounce_wait" in span.data and span.data["debounce_wait"] > 0:
        detail += f" (debounce={span.data['debounce_wait']:.2f}s)"
    return (
        f"  +{span.t_end - t_event:10.3f}s  #{span.span_id:<6} "
        f"{span.category:<22} {span.node}{detail}"
    )


def provenance_report(
    spans,
    *,
    root_id: Optional[int] = None,
    max_timeline: int = 20,
) -> str:
    """Terminal-friendly causal report for one root event.

    ``spans`` is what ``SpanTracker.snapshot()`` / ``RunRecord.spans``
    holds (Span objects or their dict form).  Without ``root_id`` the
    root with the largest causal subtree is reported.
    """
    dag = _as_dag(spans)
    rid = _resolve_root(dag, root_id)
    s = dag.summary(rid)
    t_event = s["t_event"]
    lines = [
        f"root cause #{rid}: {s['category']} at {s['node']} "
        f"(t={t_event:.3f}s)",
        f"  spans in causal tree : {s['spans']}",
        f"  converged (activity) : t={s['t_converged']:.3f}s "
        f"(+{s['t_converged'] - t_event:.3f}s)",
        f"  converged (state)    : t={s['t_state_converged']:.3f}s "
        f"(+{s['t_state_converged'] - t_event:.3f}s)",
        f"  MRAI wait total      : {s['mrai_wait_total']:.1f}s",
        f"  update fan-out       : max={s['fanout_max']} "
        f"mean={s['fanout_mean']:.2f}",
    ]
    depth = s["path_exploration_depth"]
    if depth:
        worst = max(depth.values())
        lines.append(
            f"  path exploration     : depth {worst} "
            f"over {len(depth)} prefix(es)"
        )
    lines.append("")
    lines.append("per-AS convergence instants (relative to the event):")
    instants = s["per_node_instants"]
    for node in sorted(instants, key=lambda n: (instants[n], n)):
        lines.append(f"  {node:<12} +{instants[node] - t_event:.3f}s")
    lines.append("")
    timeline = dag.timeline(rid)
    shown = timeline[:max_timeline]
    lines.append(
        f"causal timeline ({len(shown)} of {len(timeline)} spans):"
    )
    for span in shown:
        lines.append(_span_line(span, t_event))
    if len(timeline) > len(shown):
        lines.append(f"  ... {len(timeline) - len(shown)} more spans")
    return "\n".join(lines)


def provenance_markdown(
    spans,
    *,
    root_id: Optional[int] = None,
    max_timeline: int = 20,
    title: str = "Run provenance report",
) -> str:
    """Markdown version of :func:`provenance_report` (exportable)."""
    dag = _as_dag(spans)
    rid = _resolve_root(dag, root_id)
    s = dag.summary(rid)
    t_event = s["t_event"]
    lines = [
        f"# {title}",
        "",
        f"**Root cause:** span #{rid} — `{s['category']}` at "
        f"`{s['node']}`, t={t_event:.3f}s",
        "",
        "| metric | value |",
        "| --- | --- |",
        f"| spans in causal tree | {s['spans']} |",
        f"| convergence (last activity) | +{s['t_converged'] - t_event:.3f}s |",
        f"| convergence (last state change) | "
        f"+{s['t_state_converged'] - t_event:.3f}s |",
        f"| MRAI wait total | {s['mrai_wait_total']:.1f}s |",
        f"| update fan-out (max / mean) | {s['fanout_max']} / "
        f"{s['fanout_mean']:.2f} |",
    ]
    depth = s["path_exploration_depth"]
    if depth:
        lines.append(
            f"| path exploration depth | {max(depth.values())} |"
        )
    lines += [
        "",
        "## Per-AS convergence instants",
        "",
        "| AS | converged after |",
        "| --- | --- |",
    ]
    instants = s["per_node_instants"]
    for node in sorted(instants, key=lambda n: (instants[n], n)):
        lines.append(f"| {node} | +{instants[node] - t_event:.3f}s |")
    timeline = dag.timeline(rid)
    shown = timeline[:max_timeline]
    lines += [
        "",
        f"## Causal timeline ({len(shown)} of {len(timeline)} spans)",
        "",
        "| t (rel) | span | category | node | detail |",
        "| --- | --- | --- | --- | --- |",
    ]
    for span in shown:
        detail = str(span.data.get("prefix", ""))
        wait = span.data.get("mrai_wait") or span.data.get("debounce_wait")
        if wait:
            detail += f" wait={wait:.2f}s"
        lines.append(
            f"| +{span.t_end - t_event:.3f}s | #{span.span_id} | "
            f"{span.category} | {span.node} | {detail.strip()} |"
        )
    if len(timeline) > len(shown):
        lines.append("")
        lines.append(f"*… {len(timeline) - len(shown)} more spans.*")
    lines.append("")
    return "\n".join(lines)


def anatomy_of_spans(spans, *, root_id: Optional[int] = None):
    """Convergence anatomy of one root, straight from a span payload.

    Same span/root conventions as :func:`provenance_report` (Span
    objects or dicts; any span id resolves up to its root; default is
    the largest causal tree).  Returns a
    :class:`~repro.obs.anatomy.ConvergenceAnatomy`.
    """
    from ..obs.anatomy import anatomize

    dag = _as_dag(spans)
    return anatomize(dag, _resolve_root(dag, root_id))


def _cluster(exp: Experiment) -> List[str]:
    controller = exp.controller
    sub_clusters = controller.switch_graph.sub_clusters()
    return [
        "",
        "cluster:",
        f"  members        : {len(controller.members())}",
        f"  sub-clusters   : {[sorted(c) for c in sub_clusters]}",
        f"  recomputations : {controller.recomputations}",
        f"  flow mods sent : {controller.flow_mods_sent}",
        f"  known prefixes : {len(controller.known_prefixes())}",
    ]
