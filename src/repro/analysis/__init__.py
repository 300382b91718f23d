"""Log analysis, statistics, and visualization tools."""

from .graphs import GraphSummary, as_graph, cut_links, summarize_topology
from .report import experiment_report, provenance_markdown, provenance_report
from .logs import (
    RouteChange,
    churn_timeline,
    route_history,
    update_counts_by_node,
)
from .stats import BoxplotStats, LinearFit, boxplot_stats, linear_fit
from .viz import (
    ascii_boxplot_chart,
    churn_sparkline,
    route_change_timeline,
    topology_dot,
)

__all__ = [
    "experiment_report",
    "provenance_report",
    "provenance_markdown",
    "GraphSummary",
    "as_graph",
    "cut_links",
    "summarize_topology",
    "RouteChange",
    "churn_timeline",
    "route_history",
    "update_counts_by_node",
    "BoxplotStats",
    "LinearFit",
    "boxplot_stats",
    "linear_fit",
    "ascii_boxplot_chart",
    "churn_sparkline",
    "route_change_timeline",
    "topology_dot",
]
