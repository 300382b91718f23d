"""repro.obs — causal provenance tracing and cross-run telemetry.

Spans attribute every RIB/FIB change to the root event that caused it;
the DAG derives per-run explanations (path-exploration depth, MRAI
wait, update fan-out, per-AS convergence instants); exporters produce
Perfetto-loadable Chrome traces and JSONL.  See docs/observability.md.

The telemetry layer persists across processes: :mod:`~repro.obs.registry`
is the append-only SQLite run registry every sweep can record into,
:mod:`~repro.obs.trends` diffs recorded runs and sweeps, and
:mod:`~repro.obs.dashboard` renders the registry as a static HTML
page.  See docs/telemetry.md.  Those modules
(and ``runtime``/``logging``) pull in repro.runner, whose
simulator imports come back here for spans — import them by module
path; this package exports only the cycle-free span/DAG/anatomy names.
"""

from .anatomy import (
    ANATOMY_CATEGORIES,
    ConvergenceAnatomy,
    NodeAnatomy,
    aggregate_anatomy,
    anatomize,
    anatomy_markdown,
    anatomy_payload,
    anatomy_report,
    check_anatomy,
)
from .dag import STATE_CHANGING, ProvenanceDAG
from .export import (
    as_spans,
    chrome_trace_json,
    spans_from_jsonl,
    spans_to_jsonl,
    to_chrome_trace,
)
from .spans import (
    SPAN_CATEGORIES,
    Span,
    SpanTracker,
    activation,
    last_span_activation,
)

__all__ = [
    "Span",
    "SpanTracker",
    "SPAN_CATEGORIES",
    "ProvenanceDAG",
    "STATE_CHANGING",
    "ANATOMY_CATEGORIES",
    "ConvergenceAnatomy",
    "NodeAnatomy",
    "anatomize",
    "anatomy_payload",
    "anatomy_report",
    "anatomy_markdown",
    "aggregate_anatomy",
    "check_anatomy",
    "to_chrome_trace",
    "chrome_trace_json",
    "spans_to_jsonl",
    "spans_from_jsonl",
    "as_spans",
    "activation",
    "last_span_activation",
]
