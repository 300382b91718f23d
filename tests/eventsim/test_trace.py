"""Unit tests for the structured log: the records a bus publishes, as
a subscribed list receives them, and the bus's own tables."""

from repro.eventsim import ROUTE_AFFECTING
from repro.framework.convergence import MeasurementWindow
from tests.conftest import select


class _Run:
    """What a :class:`MeasurementWindow` reads of an experiment."""

    def __init__(self, sim):
        self._sim = sim
        self.net = type("Net", (), {"bus": sim.bus})()

    @property
    def now(self):
        return self._sim.now


class TestRecording:
    def test_records_carry_current_time(self, sim, sim_records):
        sim.schedule(3.0, lambda: sim.bus.record("x", "node1"))
        sim.run()
        assert sim_records[0].time == 3.0

    def test_record_data_payload(self, sim, sim_records):
        sim.bus.record("bgp.update.tx", "as1", prefix="10.0.0.0/24")
        assert sim_records[0].data["prefix"] == "10.0.0.0/24"

    def test_counts_by_category(self, sim):
        sim.bus.record("a.b", "n")
        sim.bus.record("a.b", "n")
        sim.bus.record("a.c", "n")
        assert sim.bus.counts == {"a.b": 2, "a.c": 1}

    def test_count_matches_category_prefix(self, sim):
        sim.bus.record("bgp.update.tx", "n")
        sim.bus.record("bgp.update.rx", "n")
        sim.bus.record("bgp.decision", "n")
        assert sim.bus.count("bgp.update") == 2
        assert sim.bus.count("bgp") == 3


class TestTaps:
    """Live observers are plain subscriptions on the bus."""

    def test_tap_sees_records_live(self, sim):
        seen = []
        sim.bus.subscribe(seen.append)
        sim.bus.record("x", "n")
        assert len(seen) == 1

    def test_remove_tap(self, sim):
        seen = []
        tap = sim.bus.subscribe(seen.append)
        sim.bus.unsubscribe(tap)
        sim.bus.record("x", "n")
        assert seen == []


class TestQueries:
    def _populate(self, sim):
        for t, cat, node in [
            (1.0, "bgp.update.tx", "as1"),
            (2.0, "bgp.update.rx", "as2"),
            (3.0, "fib.change", "as1"),
            (4.0, "ping.reply", "h1"),
        ]:
            sim.schedule(t, lambda c=cat, n=node: sim.bus.record(c, n))
        sim.run()

    def test_filter_by_category_prefix(self, sim, sim_records):
        self._populate(sim)
        assert len(select(sim_records, "bgp.update")) == 2
        assert len(select(sim_records, "bgp")) == 2

    def test_exact_category_does_not_match_prefix_sibling(
        self, sim, sim_records
    ):
        """``bgp.updates`` does not nest under ``bgp.update`` — for a
        record, the bus and a measurement window alike."""
        window = MeasurementWindow(_Run(sim))
        for t, category in [
            (1.0, "bgp.update"),
            (2.0, "bgp.updates"),  # not nested under bgp.update
            (3.0, "bgp.update.tx"),
            (4.0, "bgp.update.tx.retry"),  # nested under bgp.update.tx
            (5.0, "bgp.update.txs"),  # not nested under bgp.update.tx
        ]:
            sim.schedule(t, lambda c=category: sim.bus.record(c, "n"))
        sim.run()
        assert len(select(sim_records, "bgp.update")) == 4
        assert sim.bus.count("bgp.update") == 4
        assert sim.bus.count("bgp.update.tx") == 2
        assert sim.bus.last_time({"bgp.update"}) == 5.0
        assert sim.bus.last_time({"bgp.update.tx"}) == 4.0
        assert sim.bus.last_time({"bgp.updat"}) is None
        assert window.close().updates_tx == 2

    def test_last_time_over_route_affecting(self, sim):
        self._populate(sim)
        assert sim.bus.last_time(ROUTE_AFFECTING) == 3.0

    def test_last_time_matches_by_prefix_like_the_bus(self, sim, sim_records):
        """The bus's one category rule: ``bgp.update`` covers
        ``bgp.update.tx`` for ``bus.last_time`` as it does for
        ``TraceRecord.matches`` and ``count``."""
        self._populate(sim)
        assert sim.bus.last_time({"bgp.update"}) == 2.0
        assert sim.bus.last_time({"bgp"}) == 2.0
        assert sim.bus.last_time({"bgp.update"}) == sim.bus.last_time(
            {"bgp.update.tx", "bgp.update.rx"}
        )
        assert sim.bus.last_time({"bgp.update"}) == max(
            r.time for r in select(sim_records, "bgp.update")
        )
        assert sim.bus.last_time({"bgp.updat"}) is None

    def test_route_affecting_includes_controller_categories(self):
        assert "controller.recompute" in ROUTE_AFFECTING
        assert "controller.flow_install" in ROUTE_AFFECTING
