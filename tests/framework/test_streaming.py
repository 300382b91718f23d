"""Acceptance tests for the streaming measurement path.

Three guarantees it must keep:

1. :func:`measure_event` and the fault engine's
   :class:`MeasurementWindow` produce bit-identical measurements to a
   scan of the run's records, as a subscribed list received them (the
   oracle, self-contained below),
2. a metrics-only run completes the paper's 16-AS clique withdrawal
   experiment with the same convergence times at every
   ``trace_level``, while no network retains a record, and
3. a window is a *reader* of the bus's ``last_seen`` table: it holds
   no subscription, so an unobserved run evaluates no payload thunk.
"""

import dataclasses

import pytest

from repro.experiments.common import (
    FailoverScenario,
    WithdrawalScenario,
    paper_config,
    run_scenario_once,
    sdn_set_for,
)
from repro.eventsim import (
    ROUTE_AFFECTING,
    STATE_CHANGING,
    Simulator,
    TraceRecord,
)
from repro.faults import FaultInjector, FaultSchedule
from repro.faults import engine as fault_engine
from repro.framework.convergence import (
    ConvergenceMeasurement,
    MeasurementWindow,
    measure_event,
)
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.bgp.session import BGPTimers
from repro.topology.builders import clique
from tests.conftest import subscribe_records

#: measurement field -> the category (and everything nested under it)
#: whose records it counts.
COUNTED = {
    "updates_tx": "bgp.update.tx",
    "updates_rx": "bgp.update.rx",
    "decision_changes": "bgp.decision",
    "fib_changes": "fib.change",
    "recomputations": "controller.recompute",
}


def _nested(category, prefix):
    return category == prefix or category.startswith(prefix + ".")


def _scanned(t_event, t_settled, last_activity, last_state, count):
    """The measurement a scan found: maxima (None = nothing happened)
    and ``count(category)``, the records counted in the scanned span."""
    t_state = t_event if last_state is None else last_state
    t_converged = t_event if last_activity is None else last_activity
    return ConvergenceMeasurement(
        t_event=t_event,
        t_converged=max(t_converged, t_state),
        t_settled=t_settled,
        t_state_converged=t_state,
        **{name: count(category) for name, category in COUNTED.items()},
    )


def last_time(records, categories, since=0.0):
    """The trace scan: the time of the last record in ``categories``
    (each matching itself and everything nested under it) at or after
    ``since``; None if there is none."""
    return max(
        (
            r.time for r in records
            if r.time >= since
            and any(_nested(r.category, c) for c in categories)
        ),
        default=None,
    )


def measure_event_from_trace(experiment, event):
    """The scan oracle for :func:`measure_event`: fire ``event``, settle,
    then read the convergence instants by scanning the records published
    meanwhile and the activity counters as ``bus.counts`` deltas."""
    bus = experiment.net.bus
    records = subscribe_records(bus)
    t_event = experiment.now
    before = dict(bus.counts)
    event()
    t_settled = experiment.wait_converged()
    after = bus.counts

    def count(category):
        return sum(
            after[c] - before.get(c, 0) for c in after if _nested(c, category)
        )

    return _scanned(
        t_event, t_settled,
        last_time(records, ROUTE_AFFECTING, since=t_event),
        last_time(records, STATE_CHANGING, since=t_event),
        count,
    )


def window_from_trace(records, start, stop, t_open, t_close):
    """The scan oracle for a window open while ``records[start:stop]``
    were published: it counts those records, and its instants are the
    last matching records at/after ``t_open`` published before it
    closed."""
    seen, inside = records[:stop], records[start:stop]
    return _scanned(
        t_open, t_close,
        last_time(seen, ROUTE_AFFECTING, since=t_open),
        last_time(seen, STATE_CHANGING, since=t_open),
        lambda category: sum(1 for r in inside if _nested(r.category, category)),
    )


def _one_trial(scenario, sdn_count, seed, *, n=8, measurer=measure_event,
               **config_kwargs):
    """One fig2-style trial of ``scenario``, with a pluggable measurer."""
    topology = scenario.topology(n)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    config = paper_config(seed=seed, mrai=5.0, **config_kwargs)
    exp = Experiment(
        topology, sdn_members=members, config=config, name=scenario.name,
    ).build()
    scenario.configure(exp)
    exp.start()
    scenario.prepare(exp)
    return exp, measurer(exp, lambda: scenario.event(exp))


def _one_withdrawal(sdn_count, seed, **kwargs):
    return _one_trial(WithdrawalScenario(), sdn_count, seed, **kwargs)


def last_since(bus, categories, since):
    """A window's reading: the bus's last matching record, if at/after
    ``since``."""
    last = bus.last_time(categories)
    return last if last is not None and last >= since else None


class TestTrackerMatchesTraceScan:
    """Acceptance: the streaming measurement bit-identical to the scan."""

    @pytest.mark.parametrize("sdn_count", range(8))
    def test_fig2_withdrawal_sweep_equivalence(self, sdn_count):
        """Every SDN fraction at n = 8 (the origin stays legacy)."""
        for seed in (100, 101):
            _, streaming = _one_withdrawal(sdn_count, seed)
            _, scanned = _one_withdrawal(
                sdn_count, seed, measurer=measure_event_from_trace,
            )
            assert dataclasses.asdict(streaming) == dataclasses.asdict(scanned)

    @pytest.mark.parametrize("sdn_count", [0, 3, 6])
    def test_failover_equivalence(self, sdn_count):
        _, streaming = _one_trial(FailoverScenario(), sdn_count, 100)
        _, scanned = _one_trial(
            FailoverScenario(), sdn_count, 100,
            measurer=measure_event_from_trace,
        )
        assert streaming.updates_tx > 0
        assert dataclasses.asdict(streaming) == dataclasses.asdict(scanned)

    def test_overlapping_fault_windows_match_the_scan(self, monkeypatch):
        """A fault schedule whose windows overlap: each fault's window
        reads what a scan of the records published while it was open
        reads."""
        spans = []
        records = []

        class RecordedWindow(MeasurementWindow):
            def __init__(self, experiment, **kwargs):
                super().__init__(experiment, **kwargs)
                self.start = len(records)
                spans.append(self)

            def close(self, t_close=None, **kwargs):
                self.stop = len(records)
                return super().close(t_close, **kwargs)

        monkeypatch.setattr(fault_engine, "MeasurementWindow", RecordedWindow)
        topology = clique(6)
        exp = Experiment(
            topology,
            sdn_members=sdn_set_for(topology, 2, frozenset({1, 2})),
            config=paper_config(seed=4, mrai=2.0),
        ).build()
        exp.net.bus.subscribe(records.append)
        exp.start()
        for asn in (1, 2):
            exp.announce(asn, exp.as_prefix(asn))
        exp.wait_converged()
        schedule = (
            FaultSchedule()
            .link_down(1, 3, at=1.0)
            .link_down(2, 3, at=1.5)
            .link_up(1, 3, at=2.0)
            .withdraw(1, at=60.0)
        )
        result = FaultInjector(exp, schedule).run()
        assert len(spans) == len(result.reports) == 4
        # the first three windows overlap: each opened before the
        # previous one closed
        assert spans[0].stop > spans[1].start and spans[1].stop > spans[2].start
        for window, report in zip(spans, result.reports):
            scanned = window_from_trace(
                records, window.start, window.stop,
                window.t_open, report.measurement.t_settled,
            )
            assert dataclasses.asdict(report.measurement) == (
                dataclasses.asdict(scanned)
            )

    def test_equivalence_on_same_experiment(self):
        """Scan and stream read the *same* run: identical, not just
        statistically equal."""
        scenario = WithdrawalScenario()
        topology = scenario.topology(8)
        exp = Experiment(
            topology,
            sdn_members=sdn_set_for(topology, 4, scenario.reserved_legacy),
            config=paper_config(seed=7, mrai=5.0),
            name=scenario.name,
        ).build()
        records = subscribe_records(exp.net.bus)
        exp.start()
        scenario.prepare(exp)
        t_event = exp.now
        scenario.event(exp)
        exp.wait_converged()
        for categories in (ROUTE_AFFECTING, STATE_CHANGING):
            assert last_since(exp.net.bus, categories, t_event) == last_time(
                records, categories, since=t_event
            )

    def test_no_event_yields_none_since(self):
        exp = Experiment(
            clique(4),
            config=ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0)),
        ).start()
        exp.announce(1)
        exp.wait_converged()
        exp.net.sim.run(until=exp.now + 1.0)
        assert last_since(exp.net.bus, ROUTE_AFFECTING, exp.now) is None
        m = MeasurementWindow(exp).close()
        assert m.t_converged == m.t_state_converged == m.t_event


class TestTrackerReadsLastSeen:
    """``bus.last_time`` against the trace-scan oracle, on a bare bus."""

    CUSTOM = frozenset({"controller.recompute", "x.custom"})

    def setup_method(self):
        self.sim = Simulator(seed=0)
        self.bus = self.sim.bus
        self.records = subscribe_records(self.bus)

    def advance(self, delay):
        self.sim.schedule(delay, lambda: None)
        self.sim.run()

    def assert_matches_scan(self, categories, since):
        assert last_since(self.bus, categories, since) == last_time(
            self.records, categories, since=since
        )

    def test_stock_and_custom_sets_match_the_scan(self):
        sets = (ROUTE_AFFECTING, STATE_CHANGING, self.CUSTOM, {"fib.change"})
        program = [
            ("bgp.update.tx", 0.0), ("fib.change", 0.5), ("x.custom", 0.25),
            ("bgp.update.rx", 1.0), ("link.state", 2.0),
            ("controller.recompute", 0.0), ("bgp.decision", 0.125),
            ("x.other", 3.0),
        ]
        for step, (category, delay) in enumerate(program):
            self.advance(delay)
            if step % 2:
                self.bus.record_lazy(category, "n", lambda: {"lazy": True})
            else:
                self.bus.record(category, "n", eager=True)
            for categories in sets:
                for since in (0.0, 0.6, self.sim.now, self.sim.now + 1.0):
                    self.assert_matches_scan(categories, since)
        assert self.bus.last_time(ROUTE_AFFECTING) == 3.875
        assert self.bus.last_time(STATE_CHANGING) == 3.875
        assert self.bus.last_time(self.CUSTOM) == 3.75
        assert self.bus.last_time({"fib.change"}) == 0.5

    def test_published_records_carry_their_own_time(self):
        self.bus.publish(TraceRecord(4.0, "bgp.update.rx", "n"))
        self.bus.publish(TraceRecord(6.5, "fib.change", "n"))
        self.bus.publish(TraceRecord(7.0, "link.state", "n"))
        assert self.sim.now == 0.0
        assert self.bus.last_time(ROUTE_AFFECTING) == 6.5
        for since in (0.0, 4.0, 6.5, 6.6):
            self.assert_matches_scan(ROUTE_AFFECTING, since)

    def test_tracker_made_later_sees_nothing_since_now(self):
        self.bus.record("bgp.update.tx", "n")
        self.bus.record("fib.change", "n")
        self.advance(2.0)
        for categories in (ROUTE_AFFECTING, STATE_CHANGING):
            assert last_since(self.bus, categories, self.sim.now) is None
            self.assert_matches_scan(categories, self.sim.now)


class TestSetMembersMatchByPrefix:
    """A set member covers its own category and everything nested under
    it — the bus's one rule (``bus.count``, subscription filters)."""

    def test_prefix_form_measures_the_spelled_out_instants(self):
        exp = Experiment(
            clique(4),
            config=ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0)),
        ).build()
        records = subscribe_records(exp.net.bus)
        exp.start()
        m = measure_event(exp, lambda: exp.announce(1))
        bus = exp.net.bus
        prefix_form = {"bgp.update", "controller"}
        spelled_out = {
            "bgp.update.tx", "bgp.update.rx", "controller.recompute",
            "controller.flow_install", "controller.advertise",
        }
        assert m.updates_rx > 0
        assert bus.last_time({"bgp.update"}) > m.t_event
        assert bus.last_time(prefix_form) == bus.last_time(spelled_out)
        assert last_time(records, prefix_form, since=m.t_event) == (
            last_time(records, spelled_out, since=m.t_event)
        )
        assert last_time(records, prefix_form) == bus.last_time(prefix_form)

    def test_plain_subscriber_takes_its_filter(self):
        """A plain route-affecting subscription gets exactly those
        records, in publishing order, and its last one is the
        convergence instant."""
        exp = Experiment(
            clique(4),
            config=ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0)),
        ).start()
        records = subscribe_records(exp.net.bus)
        taken = []
        exp.net.bus.subscribe(taken.append, categories=ROUTE_AFFECTING)
        prefix = exp.announce(1)
        exp.wait_converged()
        m = measure_event(exp, lambda: exp.withdraw(1, prefix))
        exp.net.bus.record("link.state", "n")

        assert taken == [
            r for r in records
            if any(_nested(r.category, c) for c in ROUTE_AFFECTING)
        ]
        assert taken[-1].time == m.t_converged


class TestUnobservedRunBuildsNoPayload:
    """Laziness as it now holds: with no observer, no thunk runs — and
    it is still unobservable to anything that takes records."""

    @staticmethod
    def explode():
        raise AssertionError("payload built with nobody to read it")

    def test_trial_has_no_subscriptions(self):
        exp, m = _one_withdrawal(4, 5, trace_level="off")
        assert m.convergence_time > 0
        assert exp.net.bus.subscriptions == []

    def test_thunks_never_run_with_trace_off(self):
        exp, _ = _one_withdrawal(2, 3, n=4, trace_level="off")
        bus = exp.net.bus
        before = bus.last_time(ROUTE_AFFECTING)
        exp.net.sim.schedule(1.0, lambda: None)
        exp.net.sim.run()
        for category in sorted(ROUTE_AFFECTING):
            bus.record_lazy(category, "n", self.explode)
        assert bus.last_time(ROUTE_AFFECTING) == exp.now > before

    def test_thunks_run_again_once_someone_takes_records(self):
        exp, _ = _one_withdrawal(2, 3, n=4, trace_level="off")
        bus = exp.net.bus
        records = []
        taker = bus.subscribe(records.append)
        for category in sorted(ROUTE_AFFECTING):
            with pytest.raises(AssertionError, match="nobody"):
                bus.record_lazy(category, "n", self.explode)
        bus.record_lazy("bgp.update.tx", "n", lambda: {"seen": 1})
        assert records[-1].data == {"seen": 1}
        bus.unsubscribe(taker)
        exp.net.enable_spans()
        for category in sorted(ROUTE_AFFECTING):
            with pytest.raises(AssertionError, match="nobody"):
                bus.record_lazy(category, "n", self.explode)


class TestMetricsOnlyRun:
    """Acceptance: every trace level measures identically, and no
    network retains a record."""

    def test_16_as_clique_withdrawal_same_times_zero_records(self):
        results = {}
        for level in ("full", "off"):
            scenario = WithdrawalScenario()
            topology = scenario.topology(16)
            members = sdn_set_for(topology, 8, scenario.reserved_legacy)
            config = paper_config(
                seed=42, trace_level=level, metrics=(level == "off"),
            )
            m = run_scenario_once(scenario, topology, members, config)
            results[level] = m
        full, off = results["full"], results["off"]
        assert off.convergence_time == full.convergence_time
        assert off.state_convergence_time == full.state_convergence_time
        assert off.updates_tx == full.updates_tx
        assert dataclasses.asdict(off) == dataclasses.asdict(full)

    def test_off_retains_no_trace_records(self):
        """No level attaches a subscriber (the network keeps no trace),
        and the bus-side counts are still complete."""
        for level in ("off", "route", "full"):
            exp, m = _one_withdrawal(4, 5, trace_level=level)
            assert m.convergence_time > 0
            assert exp.net.bus.subscriptions == []
            assert exp.net.bus.count("bgp.update.tx") > 0

    def test_metrics_snapshot_attached(self):
        exp, _ = _one_withdrawal(2, 3, metrics=True)
        snap = exp.metrics_snapshot()
        assert snap is not None
        assert any(
            k.startswith("records_total{category=bgp.update.tx")
            for k in snap["counters"]
        )


class TestMeasurementOrdering:
    """Satellite: t_converged >= t_state_converged >= t_event, always."""

    @pytest.mark.parametrize("sdn_count", [0, 4, 7])
    def test_withdrawal_ordering(self, sdn_count):
        _, m = _one_withdrawal(sdn_count, 11)
        assert m.t_converged >= m.t_state_converged >= m.t_event

    def test_no_op_event_uses_event_time_sentinel(self):
        exp = Experiment(
            clique(4),
            config=ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0)),
        ).start()
        exp.announce(1)
        exp.wait_converged()
        m = measure_event(exp, lambda: None)
        # no state change: both instants collapse to the event time
        assert m.t_converged == m.t_state_converged == m.t_event
        assert m.state_convergence_time == 0.0

    def test_explicit_none_resolves_to_t_event(self):
        from repro.framework.convergence import ConvergenceMeasurement

        m = ConvergenceMeasurement(
            t_event=12.5, t_converged=12.5, t_settled=13.0,
        )
        assert m.t_state_converged == 12.5
