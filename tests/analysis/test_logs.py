"""Unit tests for log-analysis helpers."""

import pytest

from repro.analysis.logs import (
    churn_timeline,
    route_history,
    update_counts_by_node,
)
from repro.eventsim import ROUTE_AFFECTING, Simulator
from tests.conftest import subscribe_records


@pytest.fixture
def populated():
    sim = Simulator()
    records = subscribe_records(sim.bus)
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
    return sim, records


class TestUpdateCounts:
    def test_tx_counts(self, populated):
        _, records = populated
        assert update_counts_by_node(records) == {"as1": 1, "as2": 2}

    def test_rx_counts(self, populated):
        _, records = populated
        assert update_counts_by_node(records, direction="rx") == {"as2": 1}

    def test_since_filter(self, populated):
        _, records = populated
        assert update_counts_by_node(records, since=1.0) == {"as2": 2}

    def test_bad_direction(self, populated):
        _, records = populated
        with pytest.raises(ValueError):
            update_counts_by_node(records, direction="sideways")


class TestChurnTimeline:
    def test_bins(self, populated):
        _, records = populated
        timeline = churn_timeline(records, bin_size=1.0)
        assert timeline == [(0.0, 1), (1.0, 2)]

    def test_bin_size_validation(self, populated):
        _, records = populated
        with pytest.raises(ValueError):
            churn_timeline(records, bin_size=0)

    def test_category_override(self, populated):
        _, records = populated
        timeline = churn_timeline(records, bin_size=10.0, category="bgp.decision")
        assert timeline == [(0.0, 3)]


class TestRouteHistory:
    def test_history_for_prefix(self, populated):
        _, records = populated
        changes = route_history(records, "10.0.0.0/24")
        assert len(changes) == 2
        assert changes[0].new_path == "3 1"
        assert changes[1].is_loss

    def test_history_filtered_by_node(self, populated):
        _, records = populated
        assert route_history(records, "10.9.0.0/24", node="as2") == []
        gains = route_history(records, "10.9.0.0/24", node="as3")
        assert len(gains) == 1 and gains[0].is_gain


def last_time(records, categories, since=0.0):
    """The scan of a log for its last record in ``categories`` at or
    after ``since`` (None if there is none)."""
    return max(
        (
            r.time for r in records
            if r.time >= since and any(r.matches(c) for c in categories)
        ),
        default=None,
    )


class TestConvergenceInstant:
    """The convergence instant of a post-processed log is its last
    route-affecting record: what the bus's ``last_seen`` table reads."""

    def test_last_route_affecting(self, populated):
        sim, records = populated
        assert last_time(records, ROUTE_AFFECTING) == 4.0
        assert sim.bus.last_time(ROUTE_AFFECTING) == 4.0

    def test_since_cutoff(self, populated):
        _, records = populated
        assert last_time(records, ROUTE_AFFECTING, since=5.0) is None

    def test_category_prefix_covers_nested_categories(self, populated):
        sim, records = populated
        by_prefix = last_time(records, {"bgp.update"})
        assert by_prefix == 1.3
        assert by_prefix == last_time(records, {"bgp.update.tx", "bgp.update.rx"})
        assert by_prefix == sim.bus.last_time({"bgp.update"})
