"""Unit tests for the instrumentation bus (publish/subscribe core)."""

import pytest

from repro.eventsim import TraceRecord


@pytest.fixture
def bus(sim):
    return sim.bus


class TestPublishing:
    def test_record_reaches_subscriber(self, bus):
        got = []
        bus.subscribe(got.append)
        bus.record("bgp.update.tx", "as1", peer="as2")
        assert len(got) == 1
        rec = got[0]
        assert rec.category == "bgp.update.tx"
        assert rec.node == "as1"
        assert rec.data == {"peer": "as2"}

    def test_record_stamped_with_virtual_time(self, sim, bus):
        got = []
        bus.subscribe(got.append)
        sim.schedule_at(7.5, lambda: bus.record("fib.change", "as1"))
        sim.run()
        assert got[0].time == 7.5

    def test_counts_maintained_without_subscribers(self, bus):
        bus.record("bgp.update.tx", "as1")
        bus.record("bgp.update.tx", "as1")
        bus.record("bgp.update.rx", "as2")
        assert bus.counts["bgp.update.tx"] == 2
        assert bus.count("bgp.update") == 3
        assert bus.records_published == 3

    def test_count_uses_prefix_semantics(self, bus):
        bus.record("bgp.update.tx", "as1")
        bus.record("bgp.updatex", "as1")  # not nested under bgp.update
        assert bus.count("bgp.update") == 1

    def test_no_record_object_built_without_interest(self, bus):
        # A filtered-out category never constructs a TraceRecord; the
        # only observable effect is the count.
        got = []
        bus.subscribe(got.append, categories=("fib.change",))
        bus.record("bgp.update.tx", "as1")
        assert got == []
        assert bus.count("bgp.update.tx") == 1

    def test_publish_prebuilt_record(self, bus):
        got = []
        bus.subscribe(got.append)
        rec = TraceRecord(3.0, "bgp.decision", "as9")
        bus.publish(rec)
        assert got == [rec]
        assert bus.counts["bgp.decision"] == 1


class TestFiltering:
    def test_category_prefix_filter(self, bus):
        got = []
        bus.subscribe(got.append, categories=("bgp.update",))
        bus.record("bgp.update.tx", "as1")
        bus.record("bgp.update.rx", "as1")
        bus.record("bgp.decision", "as1")
        assert [r.category for r in got] == ["bgp.update.tx", "bgp.update.rx"]

    def test_exact_category_matches_itself(self, bus):
        got = []
        bus.subscribe(got.append, categories=("fib.change",))
        bus.record("fib.change", "as1")
        assert len(got) == 1

    def test_multiple_subscribers_independent_filters(self, bus):
        updates, decisions = [], []
        bus.subscribe(updates.append, categories=("bgp.update",))
        bus.subscribe(decisions.append, categories=("bgp.decision",))
        bus.record("bgp.update.tx", "as1")
        bus.record("bgp.decision", "as1")
        assert len(updates) == 1 and len(decisions) == 1

    def test_subscribe_after_publishing_invalidates_routes(self, bus):
        bus.record("bgp.update.tx", "as1")  # caches the empty route
        got = []
        bus.subscribe(got.append)
        bus.record("bgp.update.tx", "as1")
        assert len(got) == 1

    def test_unsubscribe_stops_delivery(self, bus):
        got = []
        handle = bus.subscribe(got.append)
        bus.record("fib.change", "as1")
        bus.unsubscribe(handle)
        bus.record("fib.change", "as1")
        assert len(got) == 1

    def test_unsubscribe_is_idempotent(self, bus):
        handle = bus.subscribe(lambda r: None)
        bus.unsubscribe(handle)
        bus.unsubscribe(handle)  # no error
        assert bus.subscriptions == []


class TestSampling:
    """The bus delivers every matching record; ``sample`` survives only
    as a keyword that must be 1."""

    def test_invalid_stride_rejected(self, bus):
        for stride in (0, 2, 3):
            with pytest.raises(ValueError):
                bus.subscribe(lambda r: None, sample=stride)
        assert bus.subscriptions == []
        got = []
        bus.subscribe(got.append, sample=1)
        for _ in range(3):
            bus.record("fib.change", "as1")
        assert len(got) == 3

