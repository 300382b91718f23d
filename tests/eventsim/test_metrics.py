"""Unit tests for the run metrics payload and the layer reading."""

import functools

import pytest

from repro.eventsim import (
    DebounceTimer,
    PeriodicTimer,
    Timer,
    format_snapshot,
    merge_snapshots,
    time_by_layer,
)
from repro.eventsim.metrics import (
    event_layer,
    layer_of_module,
    records_snapshot,
)
from repro.experiments.common import paper_config
from repro.obs.runtime import parse_prometheus, render_prometheus
from repro.framework.experiment import Experiment
from repro.topology.builders import clique

from tests.conftest import make_bgp_mesh


class TestBusObservation:
    def test_records_total_by_category(self, sim):
        """The payload is the bus's own counts as float counters, sorted
        by key, with empty gauge and histogram sections."""
        bus = sim.bus
        bus.record("fib.change", "as1")
        bus.record("bgp.update.tx", "as1")
        bus.record("bgp.update.tx", "as2")
        bus.record("bgp.update", "as2")
        snap = records_snapshot(bus.counts)
        assert snap == {
            "counters": {
                "records_total{category=bgp.update.tx}": 2.0,
                "records_total{category=bgp.update}": 1.0,
                "records_total{category=fib.change}": 1.0,
            },
            "gauges": {},
            "histograms": {},
        }
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == sorted(snap["counters"])


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
        """BGP's MRAI expiries and connect waits are plain session
        events; the controller's debounced recompute is a timer fire.
        Each is charged to what armed it, none to the kernel."""
        _, seen, _ = hybrid
        timers = (Timer, PeriodicTimer, DebounceTimer)
        timer_fires = [
            e for e in seen
            if isinstance(getattr(e.callback, "__self__", None), timers)
        ]
        mrai = [e for e in seen if e.label.endswith(":mrai")]
        connect = [e for e in seen if e.label.endswith(":connect")]
        assert mrai and connect
        assert {event_layer(e.callback) for e in mrai} == {"bgp"}
        assert {
            event_layer(e.callback) for e in timer_fires
            if isinstance(e.callback.__self__, DebounceTimer)
        } == {"controller"}
        assert "eventsim" not in {
            event_layer(e.callback) for e in timer_fires + mrai + connect
        }

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
    def test_merge_adds_counters(self):
        a = records_snapshot({"bgp.update.tx": 2, "fib.change": 1})
        b = records_snapshot({"bgp.update.tx": 3, "bgp.decision": 4})
        assert merge_snapshots([a, b]) == {
            "counters": {
                "records_total{category=bgp.decision}": 4.0,
                "records_total{category=bgp.update.tx}": 5.0,
                "records_total{category=fib.change}": 1.0,
            },
            "gauges": {},
            "histograms": {},
        }

    def test_merge_skips_none_snapshots(self):
        merged = merge_snapshots([None, {}, {"counters": {"c": 1.0}}])
        assert merged["counters"] == {"c": 1.0}

    def test_format_snapshot_readable(self):
        text = format_snapshot(records_snapshot({"bgp.update.tx": 5}))
        assert "records_total" in text
        assert "bgp.update.tx" in text
        assert format_snapshot(merge_snapshots([])) == "(no metrics recorded)"


class TestLabelEscaping:
    """Label values holding separator characters never make two label
    sets one sample: not in a run payload's keys, not in a rendered
    scrape."""

    def test_adversarial_label_value_cannot_collide(self):
        snap = records_snapshot({"1,category=2": 1, "1": 10})
        assert sorted(snap["counters"].values()) == [1.0, 10.0]
        merged = merge_snapshots([snap, snap])
        assert sorted(merged["counters"].values()) == [2.0, 20.0]
        scrape = parse_prometheus(render_prometheus([
            ("x", "counter", ("a", "b"), {("1,b=2", ""): 1, ("1", "2"): 10}),
        ]))
        assert scrape.value("x", a="1,b=2", b="") == 1
        assert scrape.value("x", a="1", b="2") == 10

    def test_brace_and_backslash_values_stay_distinct(self):
        snap = records_snapshot({"v}": 1, "v\\}": 2})
        assert len(snap["counters"]) == 2
        scrape = parse_prometheus(render_prometheus([
            ("x", "counter", ("k",), {("v}",): 1, ("v\\}",): 2}),
        ]))
        assert scrape.value("x", k="v}") == 1
        assert scrape.value("x", k="v\\}") == 2


class TestMergeEdgeCases:
    def test_merge_tolerates_missing_and_none_sections(self):
        snaps = [
            {"counters": {"c": 1.0}},  # no gauges/histograms keys
            {"counters": None, "gauges": None, "histograms": None},
            {"gauges": {}},
        ]
        assert merge_snapshots(snaps) == {
            "counters": {"c": 1.0}, "gauges": {}, "histograms": {},
        }
