"""Unit tests for log-analysis helpers."""

import pytest

from repro.analysis.logs import (
    churn_timeline,
    route_history,
    update_counts_by_node,
)
from repro.eventsim import ROUTE_AFFECTING, Simulator, TraceLog


@pytest.fixture
def populated():
    sim = Simulator()
    trace = TraceLog(sim.bus)
    events = [
        (0.5, "bgp.update.tx", "as1", {}),
        (0.6, "bgp.update.rx", "as2", {}),
        (1.2, "bgp.update.tx", "as2", {}),
        (1.3, "bgp.update.tx", "as2", {}),
        (2.8, "bgp.decision", "as2",
         {"prefix": "10.0.0.0/24", "old": "1", "new": "3 1"}),
        (3.0, "bgp.decision", "as2",
         {"prefix": "10.0.0.0/24", "old": "3 1", "new": None}),
        (3.0, "bgp.decision", "as3",
         {"prefix": "10.9.0.0/24", "old": None, "new": "1"}),
        (4.0, "fib.change", "as2", {}),
    ]
    for t, cat, node, data in events:
        sim.schedule(t, lambda c=cat, n=node, d=data: sim.bus.record(c, n, **d))
    sim.run()
    return sim, trace


class TestUpdateCounts:
    def test_tx_counts(self, populated):
        _, trace = populated
        assert update_counts_by_node(trace) == {"as1": 1, "as2": 2}

    def test_rx_counts(self, populated):
        _, trace = populated
        assert update_counts_by_node(trace, direction="rx") == {"as2": 1}

    def test_since_filter(self, populated):
        _, trace = populated
        assert update_counts_by_node(trace, since=1.0) == {"as2": 2}

    def test_bad_direction(self, populated):
        _, trace = populated
        with pytest.raises(ValueError):
            update_counts_by_node(trace, direction="sideways")


class TestChurnTimeline:
    def test_bins(self, populated):
        _, trace = populated
        timeline = churn_timeline(trace, bin_size=1.0)
        assert timeline == [(0.0, 1), (1.0, 2)]

    def test_bin_size_validation(self, populated):
        _, trace = populated
        with pytest.raises(ValueError):
            churn_timeline(trace, bin_size=0)

    def test_category_override(self, populated):
        _, trace = populated
        timeline = churn_timeline(trace, bin_size=10.0, category="bgp.decision")
        assert timeline == [(0.0, 3)]


class TestRouteHistory:
    def test_history_for_prefix(self, populated):
        _, trace = populated
        changes = route_history(trace, "10.0.0.0/24")
        assert len(changes) == 2
        assert changes[0].new_path == "3 1"
        assert changes[1].is_loss

    def test_history_filtered_by_node(self, populated):
        _, trace = populated
        assert route_history(trace, "10.9.0.0/24", node="as2") == []
        gains = route_history(trace, "10.9.0.0/24", node="as3")
        assert len(gains) == 1 and gains[0].is_gain


class TestConvergenceInstant:
    """The convergence instant of a post-processed log is
    ``TraceLog.last_time`` over the route-affecting categories."""

    def test_last_route_affecting(self, populated):
        _, trace = populated
        assert trace.last_time(ROUTE_AFFECTING, since=0.0) == 4.0

    def test_since_cutoff(self, populated):
        _, trace = populated
        assert trace.last_time(ROUTE_AFFECTING, since=5.0) is None

    def test_category_prefix_covers_nested_categories(self, populated):
        _, trace = populated
        by_prefix = trace.last_time({"bgp.update"}, since=0.0)
        assert by_prefix == 1.3
        assert by_prefix == trace.last_time(
            {"bgp.update.tx", "bgp.update.rx"}, since=0.0
        )
