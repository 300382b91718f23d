"""repro.obs — causal provenance tracing and cross-run telemetry.

Spans attribute every RIB/FIB change to the root event that caused it;
the DAG derives per-run explanations (path-exploration depth, MRAI
wait, update fan-out, per-AS convergence instants); exporters produce
Perfetto-loadable Chrome traces and JSONL.  See docs/observability.md.

The telemetry layer persists across processes: :mod:`~repro.obs.registry`
is the append-only SQLite run registry every sweep can record into,
:mod:`~repro.obs.trends` diffs runs/sweeps and gates regressions over
the recorded history, and :mod:`~repro.obs.dashboard` renders the
registry as a static HTML page.  See docs/telemetry.md.
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

# The telemetry modules pull in repro.runner and repro.analysis, which
# themselves import the simulator packages that import repro.obs.spans —
# so they must load lazily (PEP 562) to keep `import repro.bgp` and
# friends cycle-free.
_LAZY = {
    "render_dashboard": ".dashboard",
    "DEFAULT_REGISTRY_PATH": ".registry",
    "REGISTRY_ENV": ".registry",
    "RegistrySink": ".registry",
    "RunRegistry": ".registry",
    "RunRow": ".registry",
    "SweepRow": ".registry",
    "aggregate_profiles": ".registry",
    "current_git_rev": ".registry",
    "resolve_registry": ".registry",
    "Regression": ".trends",
    "RunDiff": ".trends",
    "SweepDiff": ".trends",
    "detect_regressions": ".trends",
    "diff_runs": ".trends",
    "diff_sweeps": ".trends",
    # operational telemetry plane (docs/operations.md)
    "PromScrape": ".runtime",
    "parse_prometheus": ".runtime",
    "render_prometheus": ".runtime",
    "StructuredLogger": ".logging",
    "get_logger": ".logging",
    "log_enabled": ".logging",
    "new_cid": ".logging",
    "StackSampler": ".sampler",
    "collapsed_text": ".sampler",
    "merge_stacks": ".sampler",
    "top_frames": ".sampler",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        value = getattr(import_module(_LAZY[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "DEFAULT_REGISTRY_PATH",
    "REGISTRY_ENV",
    "RunRegistry",
    "RegistrySink",
    "RunRow",
    "SweepRow",
    "aggregate_profiles",
    "current_git_rev",
    "resolve_registry",
    "Regression",
    "RunDiff",
    "SweepDiff",
    "diff_runs",
    "diff_sweeps",
    "detect_regressions",
    "render_dashboard",
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
    "PromScrape",
    "parse_prometheus",
    "render_prometheus",
    "StructuredLogger",
    "get_logger",
    "log_enabled",
    "new_cid",
    "StackSampler",
    "collapsed_text",
    "merge_stacks",
    "top_frames",
]
