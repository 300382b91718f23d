"""Unit tests for the online metrics registry and the layer reading."""

import functools

import pytest

from repro.eventsim import (
    Counter,
    DebounceTimer,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicTimer,
    Timer,
    format_snapshot,
    merge_snapshots,
    time_by_layer,
)
from repro.eventsim.metrics import (
    event_layer,
    layer_of_module,
    parse_key,
    records_snapshot,
)
from repro.experiments.common import paper_config
from repro.framework.experiment import Experiment
from repro.topology.builders import clique

from tests.conftest import make_bgp_mesh


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(4)
        g.inc()
        assert g.value == 7

    def test_histogram_moments(self):
        h = Histogram()
        for v in (0.001, 0.01, 0.1):
            h.observe(v)
        assert h.count == 3
        assert h.minimum == 0.001
        assert h.maximum == 0.1
        assert h.mean == pytest.approx(0.037)

    def test_histogram_buckets_cumulative_style(self):
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(500.0)  # over the top bound
        d = h.to_dict()
        assert d["buckets"] == {"le_1": 1, "le_10": 1, "inf": 1}

    def test_empty_histogram_dict(self):
        d = Histogram().to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", node="a") is not reg.counter("x", node="b")

    def test_label_keys_are_order_independent(self):
        reg = MetricsRegistry()
        a = reg.counter("m", node="n1", category="c1")
        b = reg.counter("m", category="c1", node="n1")
        assert a is b

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1


class TestBusObservation:
    def test_records_total_by_category(self, sim):
        """The payload is the bus's own counts, in the registry's shape
        and key order."""
        bus = sim.bus
        bus.record("fib.change", "as1")
        bus.record("bgp.update.tx", "as1")
        bus.record("bgp.update.tx", "as2")
        snap = records_snapshot(bus.counts)
        assert snap["counters"]["records_total{category=bgp.update.tx}"] == 2
        assert snap["counters"]["records_total{category=fib.change}"] == 1
        reg = MetricsRegistry()
        for category, n in bus.counts.items():
            reg.counter("records_total", category=category).inc(n)
        assert snap == reg.snapshot()
        assert list(snap["counters"]) == list(reg.snapshot()["counters"])


class TestTimeByLayer:
    """The per-layer wall reading: which layer owns a dispatched event."""

    @pytest.fixture(scope="class")
    def hybrid(self):
        """A metrics-on 5-AS clique with two SDN members: an announcement
        and its withdrawal under the reading, with an earlier hook that
        keeps every dispatched event."""
        exp = Experiment(
            clique(5), sdn_members={4, 5},
            config=paper_config(seed=3, mrai=1.0, metrics=True),
        ).build()
        seen = []
        exp.net.sim.set_dispatch_hook(lambda event, wall: seen.append(event))
        walls = time_by_layer(exp.net.sim)
        exp.start()
        prefix = exp.announce(1)
        exp.wait_converged()
        exp.withdraw(1, prefix)
        exp.wait_converged()
        return exp, seen, walls

    def test_layer_is_the_repro_subpackage(self):
        assert layer_of_module("repro.bgp.router") == "bgp"
        assert layer_of_module("repro.eventsim.bus") == "eventsim"
        assert layer_of_module("repro.controller") == "controller"
        for outside in ("repro", "json", "", None):
            assert layer_of_module(outside) == "other"

    def test_timer_fire_is_charged_to_the_component_that_armed_it(self, net):
        router, _ = make_bgp_mesh(net, 2, start=False)
        assert event_layer(Timer(net.sim, router.start)._fire) == "bgp"
        debounce = DebounceTimer(net.sim, functools.partial(router.start), 1)
        assert event_layer(debounce._fire) == "bgp"
        # an unbound function belongs to its module
        assert event_layer(Timer(net.sim, clique)._fire) == "topology"

    def test_timer_fires_in_a_trial_leave_the_kernel(self, hybrid):
        _, seen, _ = hybrid
        timers = (Timer, PeriodicTimer, DebounceTimer)
        fired = {
            event_layer(e.callback) for e in seen
            if isinstance(getattr(e.callback, "__self__", None), timers)
        }
        assert {"bgp", "controller"} <= fired
        assert "eventsim" not in fired

    def test_link_delivery_is_charged_to_the_receiver(self, hybrid):
        _, seen, _ = hybrid
        delivered = {
            event_layer(e.callback) for e in seen
            if e.label.endswith(":deliver")
        }
        assert delivered == {"bgp", "sdn", "controller"}

    def test_earlier_hook_still_runs_once_per_event(self, hybrid):
        exp, seen, walls = hybrid
        assert len(seen) == exp.net.sim.events_processed
        assert len(set(map(id, seen))) == len(seen)
        assert set(walls) == {event_layer(e.callback) for e in seen}
        assert all(seconds > 0 for seconds in walls.values())


class TestSnapshotTools:
    def test_merge_adds_counters_and_histograms(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.histogram("h").observe(1.0)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.histogram("h").observe(3.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c"] == 5.0
        h = merged["histograms"]["h"]
        assert h["count"] == 2
        assert h["mean"] == pytest.approx(2.0)
        assert h["min"] == 1.0 and h["max"] == 3.0

    def test_merge_gauges_last_wins(self):
        snaps = [
            {"counters": {}, "gauges": {"g": 1.0}, "histograms": {}},
            {"counters": {}, "gauges": {"g": 9.0}, "histograms": {}},
        ]
        assert merge_snapshots(snaps)["gauges"]["g"] == 9.0

    def test_merge_skips_none_snapshots(self):
        merged = merge_snapshots([None, {}, {"counters": {"c": 1.0}}])
        assert merged["counters"] == {"c": 1.0}

    def test_format_snapshot_readable(self):
        reg = MetricsRegistry()
        reg.counter("records_total", category="bgp.update.tx").inc(5)
        text = format_snapshot(reg.snapshot())
        assert "records_total" in text
        assert "bgp.update.tx" in text


class TestLabelEscaping:
    def test_adversarial_label_value_cannot_collide(self):
        reg = MetricsRegistry()
        tricky = reg.counter("x", a="1,b=2")
        honest = reg.counter("x", a="1", b="2")
        assert tricky is not honest
        tricky.inc(1)
        honest.inc(10)
        snap = reg.snapshot()["counters"]
        assert sorted(snap.values()) == [1.0, 10.0]

    def test_brace_and_backslash_values_stay_distinct(self):
        reg = MetricsRegistry()
        a = reg.counter("x", k="v}")
        b = reg.counter("x", k="v\\}")
        assert a is not b


class TestParseKey:
    """parse_key must exactly invert the registry's flat-key encoding —
    the /metrics exposition rebuilds label sets from these keys."""

    def test_plain_name_has_no_labels(self):
        assert parse_key("events_total") == ("events_total", {})

    def test_round_trips_sorted_labels(self):
        assert parse_key('x{a=1,b=2}') == ("x", {"a": "1", "b": "2"})

    def test_round_trips_adversarial_values(self):
        reg = MetricsRegistry()
        nasty = {"a": "1,b=2", "k": "v\\}", "e": "="}
        reg.counter("x", **nasty).inc()
        (key,) = reg.snapshot()["counters"]
        assert parse_key(key) == ("x", nasty)

    def test_collision_pair_parses_to_distinct_labels(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1,b=2").inc(1)
        reg.counter("x", a="1", b="2").inc(10)
        parsed = sorted(
            (parse_key(key)[1] for key in reg.snapshot()["counters"]),
            key=str,
        )
        assert parsed == [{"a": "1", "b": "2"}, {"a": "1,b=2"}]

    def test_malformed_keys_rejected(self):
        for bad in ("x{a=1", "x{a}", "x{,}"):
            with pytest.raises(ValueError):
                parse_key(bad)


class TestMergeEdgeCases:
    def test_merge_tolerates_missing_and_none_sections(self):
        snaps = [
            {"counters": {"c": 1.0}},  # no gauges/histograms keys
            {"counters": None, "gauges": None, "histograms": None},
            {"histograms": {"h": {"count": 1, "sum": 2.0, "min": 2.0,
                                  "max": 2.0, "mean": 2.0,
                                  "buckets": {"le_5": 1}}}},
        ]
        merged = merge_snapshots(snaps)
        assert merged["counters"] == {"c": 1.0}
        assert merged["histograms"]["h"]["count"] == 1

    def test_merge_histogram_with_none_buckets(self):
        snaps = [
            {"histograms": {"h": {"count": 1, "sum": 1.0, "min": 1.0,
                                  "max": 1.0, "mean": 1.0,
                                  "buckets": None}}},
            {"histograms": {"h": {"count": 1, "sum": 3.0, "min": 3.0,
                                  "max": 3.0, "mean": 3.0,
                                  "buckets": {"inf": 1}}}},
        ]
        h = merge_snapshots(snaps)["histograms"]["h"]
        assert h["count"] == 2
        assert h["mean"] == pytest.approx(2.0)
        assert h["buckets"] == {"inf": 1}

    def test_merge_mismatched_bucket_boundaries_sorted(self):
        a = {"histograms": {"h": {"count": 2, "sum": 2.0, "min": 0.5,
                                  "max": 1.5, "mean": 1.0,
                                  "buckets": {"le_1": 1, "inf": 1}}}}
        b = {"histograms": {"h": {"count": 2, "sum": 20.0, "min": 5.0,
                                  "max": 15.0, "mean": 10.0,
                                  "buckets": {"le_10": 1, "inf": 1}}}}
        h = merge_snapshots([a, b])["histograms"]["h"]
        # counts stay attributed to their own bound; order is numeric
        assert list(h["buckets"]) == ["le_1", "le_10", "inf"]
        assert h["buckets"] == {"le_1": 1, "le_10": 1, "inf": 2}
        assert h["min"] == 0.5 and h["max"] == 15.0

    def test_merge_empty_histogram_keeps_none_extremes(self):
        snaps = [{"histograms": {"h": {"count": 0, "sum": 0.0, "min": None,
                                       "max": None, "mean": 0.0,
                                       "buckets": {}}}}]
        h = merge_snapshots(snaps)["histograms"]["h"]
        assert h["min"] is None and h["max"] is None
        assert h["count"] == 0

    def test_format_snapshot_handles_empty_histogram(self):
        snap = {
            "counters": {},
            "gauges": {},
            "histograms": {"h": {"count": 0, "sum": 0.0, "min": None,
                                 "max": None, "mean": 0.0, "buckets": {}}},
        }
        text = format_snapshot(snap)  # must not raise on None min/max
        # empty histograms are skipped rather than rendered as garbage
        assert "n=0" not in text
        assert "min=" not in text and "max=" not in text

    def test_format_snapshot_none_extremes_with_count(self):
        snap = {
            "histograms": {"h": {"count": 3, "sum": 6.0, "min": None,
                                 "max": None, "mean": 2.0, "buckets": {}}},
        }
        text = format_snapshot(snap)
        assert "n=3" in text and "mean=2" in text
        assert "min=" not in text and "max=" not in text

    def test_format_snapshot_handles_missing_mean(self):
        snap = {
            "histograms": {"h": {"count": 2, "sum": 4.0, "min": 1.0,
                                 "max": 3.0, "buckets": {}}},
        }
        text = format_snapshot(snap)
        assert "mean=2" in text or "mean=0" in text
