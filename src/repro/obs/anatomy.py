"""Convergence anatomy — critical-path delay attribution over spans.

The provenance DAG says *when* each AS converged; this module says
*why it took that long*.  For one convergence root it extracts, per AS,
the **critical causal path**: the parent chain of the span that fixes
that AS's convergence instant (its latest route-affecting span, ties
broken toward the smallest span id so the choice is deterministic).
Walking that chain root-to-leaf with a time cursor decomposes the
whole interval ``instant - t_event`` into delay categories:

- ``propagation`` — time on the wire (cursor advancing to an
  ``bgp.update.rx`` delivery instant),
- ``mrai_wait`` — time an UPDATE sat in an MRAI gate (the
  ``mrai_wait`` annotation that sessions stretch over their tx spans),
- ``debounce_wait`` — time dirty prefixes waited for the controller's
  debounced recompute (the ``debounce_wait`` annotation),
- ``processing`` — any remaining forward motion of the cursor across a
  span (BGP decision work, scheduled processing delays),
- ``queueing`` — the residual: whatever part of the interval the chain
  does not cover (gaps closed by later spans), plus float dust.

``queueing`` is computed *by subtraction* and then nudged by at most a
few ulps so the fixed-order category sum equals ``total`` bit-exactly —
the waterfall always reconciles with the measured instant, which is the
invariant CI asserts (``repro trace anatomy --check``).  Everything
here is a pure function of the recorded spans (simulated timestamps
only), so anatomy is deterministic by construction and provably
invisible to results — the differential test pins measurements, trace
digests and spec digests identical with anatomy on or off.

See docs/observability.md ("Convergence anatomy") for a worked
waterfall on the paper's 16-AS clique.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..eventsim.bus import ROUTE_AFFECTING
from .dag import ProvenanceDAG
from .spans import Span

__all__ = [
    "ANATOMY_CATEGORIES",
    "NodeAnatomy",
    "ConvergenceAnatomy",
    "critical_spans",
    "anatomize",
    "anatomy_payload",
    "ensure_record_anatomy",
    "aggregate_anatomy",
    "check_anatomy",
    "anatomy_report",
    "anatomy_markdown",
    "anatomy_json",
]

#: Delay categories, in the fixed order the exact-sum invariant uses.
ANATOMY_CATEGORIES = (
    "propagation",
    "mrai_wait",
    "debounce_wait",
    "processing",
    "queueing",
)

#: payload format version carried by every anatomy dict.
ANATOMY_SCHEMA = 1


@dataclass(frozen=True)
class NodeAnatomy:
    """One AS's convergence interval, decomposed along its critical path.

    ``categories`` sums (in :data:`ANATOMY_CATEGORIES` order) bit-exactly
    to ``total`` = ``instant - t_event``.  ``steps`` is the rendered
    waterfall: ``(span_id, span category, delay category, t_from, t_to,
    amount)`` segments in causal order — present only on live objects
    built from a DAG, dropped from the compact payload because it is
    always re-derivable from the spans.
    """

    node: str
    instant: float
    total: float
    critical_span: int
    depth: int
    categories: Dict[str, float]
    steps: Tuple[Tuple[int, str, str, float, float, float], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instant": self.instant,
            "total": self.total,
            "critical_span": self.critical_span,
            "depth": self.depth,
            "categories": dict(self.categories),
        }


@dataclass(frozen=True)
class ConvergenceAnatomy:
    """All per-AS waterfalls of one convergence root.

    ``critical_node`` is the last AS to converge (ties broken by node
    name, so the pick is deterministic); its waterfall decomposes the
    event's headline ``t_converged - t_event`` and is what sweeps
    aggregate against the SDN fraction.
    """

    root_id: int
    root_category: str
    root_node: str
    t_event: float
    t_converged: float
    nodes: Dict[str, NodeAnatomy] = field(default_factory=dict)

    @property
    def critical_node(self) -> Optional[str]:
        best: Optional[str] = None
        for name, node in self.nodes.items():
            if (
                best is None
                or node.instant > self.nodes[best].instant
                or (
                    node.instant == self.nodes[best].instant
                    and name < best
                )
            ):
                best = name
        return best

    @property
    def critical(self) -> Optional[NodeAnatomy]:
        name = self.critical_node
        return self.nodes[name] if name is not None else None

    @property
    def categories(self) -> Dict[str, float]:
        """The critical AS's waterfall (sums to the event's duration)."""
        critical = self.critical
        if critical is None:
            return {category: 0.0 for category in ANATOMY_CATEGORIES}
        return dict(critical.categories)

    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON payload (RunRecord / cache / registry form)."""
        return {
            "schema": ANATOMY_SCHEMA,
            "root_id": self.root_id,
            "root_category": self.root_category,
            "root_node": self.root_node,
            "t_event": self.t_event,
            "t_converged": self.t_converged,
            "critical_node": self.critical_node,
            "critical_depth": (
                self.critical.depth if self.critical is not None else 0
            ),
            "categories": self.categories,
            "nodes": {
                name: self.nodes[name].to_dict()
                for name in sorted(self.nodes)
            },
        }


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
def critical_spans(
    dag: ProvenanceDAG, root_id: int, *, categories=ROUTE_AFFECTING
) -> Dict[str, Span]:
    """Per node, the span that fixes its convergence instant.

    The latest matching span of the root's subtree at each node; at
    equal ``t_end`` the smallest span id wins, so the critical path is
    deterministic.  ``span.t_end`` equals
    :meth:`ProvenanceDAG.per_node_instants` for every node.
    """
    best: Dict[str, Span] = {}
    for span in dag.subtree(root_id):
        if span.category not in categories:
            continue
        prev = best.get(span.node)
        if (
            prev is None
            or span.t_end > prev.t_end
            or (span.t_end == prev.t_end and span.span_id < prev.span_id)
        ):
            best[span.node] = span
    return best


def _wait_of(span: Span) -> Tuple[float, Optional[str]]:
    """The annotated gate wait a span covers, and its delay category."""
    if span.category == "bgp.update.tx":
        return float(span.data.get("mrai_wait") or 0.0), "mrai_wait"
    if span.category == "controller.recompute":
        return float(span.data.get("debounce_wait") or 0.0), "debounce_wait"
    return 0.0, None


def _attribute_chain(
    chain: Sequence[Span], t_event: float, instant: float
) -> Tuple[Dict[str, float], Tuple]:
    """Decompose ``instant - t_event`` along a root-first parent chain.

    A cursor walks the chain; each span that moves it forward charges
    the advance to a category.  ``queueing`` closes the books: it is
    ``total`` minus the named categories, nudged (at most a few ulps)
    until the fixed-order sum reproduces ``total`` bit-exactly.
    """
    named = {
        "propagation": 0.0,
        "mrai_wait": 0.0,
        "debounce_wait": 0.0,
        "processing": 0.0,
    }
    steps: List[Tuple[int, str, str, float, float, float]] = []
    cursor = t_event
    for span in chain[1:]:  # the root itself is the event instant
        if span.t_end <= cursor:
            continue
        delta = span.t_end - cursor
        wait, wait_category = _wait_of(span)
        waited = min(wait, delta) if wait > 0.0 else 0.0
        if waited > 0.0 and wait_category is not None:
            named[wait_category] += waited
            steps.append(
                (span.span_id, span.category, wait_category,
                 cursor, cursor + waited, waited)
            )
        remainder = delta - waited
        if remainder > 0.0:
            bucket = (
                "propagation"
                if span.category == "bgp.update.rx"
                else "processing"
            )
            named[bucket] += remainder
            steps.append(
                (span.span_id, span.category, bucket,
                 cursor + waited, span.t_end, remainder)
            )
        cursor = span.t_end
    total = instant - t_event
    categories = dict(named)
    categories["queueing"] = _close_residual(named, total)
    return categories, tuple(steps)


def _close_residual(named: Dict[str, float], total: float) -> float:
    """The ``queueing`` value that makes the category sum equal ``total``.

    Telescoping float sums need not reproduce the endpoint difference,
    so the residual starts as plain subtraction and is then corrected
    until adding it back lands on ``total`` exactly.  The loop is
    bounded: for simulator-scale magnitudes one pass suffices, and a
    non-converging pathological case keeps the best correction found.
    """
    base = 0.0
    for category in ("propagation", "mrai_wait", "debounce_wait",
                     "processing"):
        base += named[category]
    residual = total - base
    for _ in range(4):
        gap = total - (base + residual)
        if gap == 0.0:
            break
        residual += gap
    return residual


def anatomize(dag: ProvenanceDAG, root_id: int) -> ConvergenceAnatomy:
    """Full per-AS delay attribution for one convergence root.

    One walk of the root's subtree: ``t_converged`` is the latest
    critical span's ``t_end`` (the root's own without any), which is
    :meth:`ProvenanceDAG.convergence_instant` by construction.
    """
    root = dag.by_id[root_id]
    critical = critical_spans(dag, root_id)
    anatomy = ConvergenceAnatomy(
        root_id=root_id,
        root_category=root.category,
        root_node=root.node,
        t_event=root.t_start,
        t_converged=max(
            (span.t_end for span in critical.values()), default=root.t_end
        ),
    )
    for node, span in critical.items():
        chain = list(reversed(dag.parent_chain(span.span_id)))
        categories, steps = _attribute_chain(
            chain, anatomy.t_event, span.t_end
        )
        anatomy.nodes[node] = NodeAnatomy(
            node=node,
            instant=span.t_end,
            total=span.t_end - anatomy.t_event,
            critical_span=span.span_id,
            depth=len(chain) - 1,
            categories=categories,
            steps=steps,
        )
    return anatomy


# ----------------------------------------------------------------------
# record plumbing
# ----------------------------------------------------------------------
def anatomy_payload(
    spans: Iterable[Dict[str, Any]], root_id: Optional[int]
) -> Optional[Dict[str, Any]]:
    """The compact anatomy dict for a record's span payload, or None.

    ``root_id`` is the measured event's root span
    (``measurement.extra["event_root_span"]``); without it — or when
    the id does not resolve in the spans — there is nothing to
    attribute.
    """
    if root_id is None:
        return None
    return _dag_payload(ProvenanceDAG.from_dicts(spans), int(root_id))


def _dag_payload(dag: ProvenanceDAG, root_id: int) -> Optional[Dict[str, Any]]:
    if root_id not in dag.by_id:
        return None
    return anatomize(dag, root_id).to_dict()


def ensure_record_anatomy(
    record, live_spans: Optional[Sequence[Span]] = None
) -> None:
    """Fill ``record.anatomy`` in place when it is derivable.

    Anatomy is a pure function of the record's spans, so a cached
    record written before anatomy existed (or by an anatomy-off run of
    the same digest) gains it losslessly on the way out of the cache,
    and a registry write derives it from the stored dicts.  The worker
    that just ran the trial passes ``live_spans`` — the tracker's own
    :class:`Span` list, of which ``record.spans`` is the snapshot — and
    the DAG is built from those directly.  No-op when already present
    or when spans/measurement are missing.
    """
    if record.anatomy is not None or not record.spans:
        return
    measurement = record.measurement
    if measurement is None:
        return
    root_id = measurement.extra.get("event_root_span")
    if root_id is None:
        return
    dag = (
        ProvenanceDAG.from_dicts(record.spans) if live_spans is None
        else ProvenanceDAG(live_spans)
    )
    record.anatomy = _dag_payload(dag, int(root_id))


# ----------------------------------------------------------------------
# aggregation / verification
# ----------------------------------------------------------------------
def aggregate_anatomy(
    payloads: Iterable[Optional[Dict[str, Any]]]
) -> Optional[Dict[str, Any]]:
    """Median per-category attribution across runs' anatomy payloads.

    Aggregates the critical-path waterfalls (each run's headline
    decomposition); ``None`` entries are skipped.  Returns ``{"runs":
    n, "categories": {...medians...}, "total": median total}`` or None
    when nothing carried anatomy.
    """
    rows = [p for p in payloads if p and isinstance(p.get("categories"), dict)]
    if not rows:
        return None

    def median(values: List[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    categories = {
        category: median(
            [float(p["categories"].get(category, 0.0)) for p in rows]
        )
        for category in ANATOMY_CATEGORIES
    }
    totals = [
        float(p.get("t_converged", 0.0)) - float(p.get("t_event", 0.0))
        for p in rows
    ]
    return {
        "runs": len(rows),
        "categories": categories,
        "total": median(totals),
    }


def check_anatomy(
    payload: Dict[str, Any],
    *,
    t_converged: Optional[float] = None,
) -> List[str]:
    """Verify the exact-sum invariant of an anatomy payload.

    Every node's fixed-order category sum must equal its ``total``
    bit-exactly, every total must equal ``instant - t_event``, and the
    latest instant must equal the payload's ``t_converged`` (and the
    measured one, when given — that is the MeasurementWindow cross
    check CI runs).  Returns human-readable problems; empty == exact.
    """
    problems: List[str] = []
    t_event = payload.get("t_event", 0.0)
    nodes = payload.get("nodes") or {}
    latest: Optional[float] = None
    for name in sorted(nodes):
        node = nodes[name]
        total = node.get("total", 0.0)
        instant = node.get("instant", 0.0)
        latest = instant if latest is None else max(latest, instant)
        sum_ = 0.0
        for category in ANATOMY_CATEGORIES:
            sum_ += node.get("categories", {}).get(category, 0.0)
        if sum_ != total:
            problems.append(
                f"{name}: categories sum {sum_!r} != total {total!r}"
            )
        if total != instant - t_event:
            problems.append(
                f"{name}: total {total!r} != instant - t_event "
                f"{(instant - t_event)!r}"
            )
    if latest is not None and latest != payload.get("t_converged"):
        problems.append(
            f"latest instant {latest!r} != t_converged "
            f"{payload.get('t_converged')!r}"
        )
    if t_converged is not None and payload.get("t_converged") != t_converged:
        problems.append(
            f"anatomy t_converged {payload.get('t_converged')!r} != "
            f"measured {t_converged!r}"
        )
    return problems


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def _category_cells(categories: Dict[str, float]) -> List[str]:
    return [f"{categories.get(c, 0.0):10.3f}" for c in ANATOMY_CATEGORIES]


def _waterfall_lines(node: NodeAnatomy) -> List[str]:
    lines = [
        f"critical path of {node.node} "
        f"(instant {node.instant:.3f}s, {node.depth} hop(s)):"
    ]
    for span_id, span_category, delay_category, t_from, t_to, amount in (
        node.steps
    ):
        lines.append(
            f"  {t_from:9.3f}s -> {t_to:9.3f}s  {delay_category:<13} "
            f"{amount:8.3f}s  [{span_category} #{span_id}]"
        )
    if not node.steps:
        lines.append("  (instantaneous — converged at the event itself)")
    return lines


def anatomy_report(
    anatomy: ConvergenceAnatomy, *, node: Optional[str] = None
) -> str:
    """Human-readable waterfall report (``repro trace anatomy``).

    Shows the per-AS category table plus the step-by-step waterfall of
    one AS — ``node`` when given, the critical (last-converging) AS
    otherwise.
    """
    lines = [
        "Convergence anatomy",
        "===================",
        f"root        : #{anatomy.root_id} {anatomy.root_category} "
        f"at {anatomy.root_node}",
        f"t_event     : {anatomy.t_event:.3f}s",
        f"t_converged : {anatomy.t_converged:.3f}s  "
        f"(duration {anatomy.t_converged - anatomy.t_event:.3f}s)",
        f"critical AS : {anatomy.critical_node}",
        "",
        "Per-AS delay attribution (seconds; rows sum to the interval):",
        "  node        " + " ".join(f"{c:>10}" for c in ANATOMY_CATEGORIES)
        + "      total",
    ]
    for name in sorted(anatomy.nodes):
        per_node = anatomy.nodes[name]
        lines.append(
            f"  {name:<11} "
            + " ".join(_category_cells(per_node.categories))
            + f" {per_node.total:10.3f}"
        )
    focus = node if node is not None else anatomy.critical_node
    if focus is not None and focus in anatomy.nodes:
        lines.append("")
        lines.extend(_waterfall_lines(anatomy.nodes[focus]))
    elif node is not None:
        lines.append("")
        lines.append(f"(node {node!r} has no activity under this root)")
    return "\n".join(lines) + "\n"


def anatomy_markdown(anatomy: ConvergenceAnatomy) -> str:
    """Markdown form of the waterfall report (CI artifact / docs)."""
    duration = anatomy.t_converged - anatomy.t_event
    lines = [
        "# Convergence anatomy",
        "",
        f"- **Root**: `#{anatomy.root_id}` {anatomy.root_category} at "
        f"{anatomy.root_node}",
        f"- **Interval**: {anatomy.t_event:.3f}s → "
        f"{anatomy.t_converged:.3f}s ({duration:.3f}s)",
        f"- **Critical AS**: {anatomy.critical_node}",
        "",
        "| node | " + " | ".join(ANATOMY_CATEGORIES) + " | total |",
        "|---|" + "---|" * (len(ANATOMY_CATEGORIES) + 1),
    ]
    for name in sorted(anatomy.nodes):
        per_node = anatomy.nodes[name]
        cells = " | ".join(
            f"{per_node.categories.get(c, 0.0):.3f}"
            for c in ANATOMY_CATEGORIES
        )
        lines.append(f"| {name} | {cells} | {per_node.total:.3f} |")
    critical = anatomy.critical
    if critical is not None and critical.steps:
        lines += [
            "",
            f"## Critical path ({critical.node})",
            "",
            "| from | to | category | amount | span |",
            "|---|---|---|---|---|",
        ]
        for span_id, span_category, delay_category, t_from, t_to, amount in (
            critical.steps
        ):
            lines.append(
                f"| {t_from:.3f}s | {t_to:.3f}s | {delay_category} | "
                f"{amount:.3f}s | {span_category} #{span_id} |"
            )
    return "\n".join(lines) + "\n"


def anatomy_json(anatomy: ConvergenceAnatomy) -> str:
    """Canonical JSON form of the compact payload."""
    return json.dumps(anatomy.to_dict(), indent=2, sort_keys=True)
