"""Acceptance tests for the streaming instrumentation refactor.

Three guarantees the refactor must keep:

1. the streaming :class:`ConvergenceTracker` produces bit-identical
   measurements to the retained-trace scan (the oracle),
2. a metrics-only run (``trace_level="off"``) completes the paper's
   16-AS clique withdrawal experiment with the same convergence times
   while retaining zero trace records, and
3. the tracker is a *reader* of the bus's ``last_seen`` table: it holds
   no subscription, so an unobserved run evaluates no payload thunk.
"""

import dataclasses

import pytest

from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    run_scenario_once,
    sdn_set_for,
)
from repro.eventsim import (
    ROUTE_AFFECTING,
    InstrumentationBus,
    Simulator,
    TraceLog,
    TraceRecord,
)
from repro.framework.convergence import (
    STATE_CHANGING,
    ConvergenceTracker,
    _measure,
    measure_event,
)
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.bgp.session import BGPTimers
from repro.topology.builders import clique


def measure_event_from_trace(
    experiment, event, *, horizon=None, check_reachability=False
):
    """The scan oracle: :func:`measure_event` with the convergence
    instants and counters re-read from the retained trace (requires
    full trace capture) instead of the streaming tracker."""
    trace = experiment.net.trace
    return _measure(
        experiment, event,
        horizon=horizon, check_reachability=check_reachability,
        counts=lambda: trace.counts,
        last_activity_since=lambda since: trace.last_time(
            ROUTE_AFFECTING, since=since
        ),
        last_state_since=lambda since: trace.last_time(
            STATE_CHANGING, since=since
        ),
    )


def _one_withdrawal(sdn_count, seed, *, n=8, measurer=measure_event,
                    **config_kwargs):
    """One fig2-style withdrawal trial, with a pluggable measurer."""
    scenario = WithdrawalScenario()
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


class TestTrackerMatchesTraceScan:
    """Acceptance: streaming tracker bit-identical to the trace scan."""

    @pytest.mark.parametrize("sdn_count", [0, 3, 7])
    def test_fig2_withdrawal_sweep_equivalence(self, sdn_count):
        for seed in (100, 101):
            _, streaming = _one_withdrawal(sdn_count, seed)
            _, scanned = _one_withdrawal(
                sdn_count, seed, measurer=measure_event_from_trace,
            )
            assert dataclasses.asdict(streaming) == dataclasses.asdict(scanned)

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
        exp.start()
        scenario.prepare(exp)
        t_event = exp.now
        scenario.event(exp)
        exp.wait_converged()
        tracker = exp.tracker
        trace = exp.net.trace
        assert tracker.last_activity_since(t_event) == trace.last_time(
            ROUTE_AFFECTING, since=t_event
        )
        assert tracker.last_state_change_since(t_event) == trace.last_time(
            STATE_CHANGING, since=t_event
        )
        assert tracker.counters() == trace.counts

    def test_no_event_yields_none_since(self):
        exp = Experiment(
            clique(4),
            config=ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0)),
        ).start()
        exp.announce(1)
        exp.wait_converged()
        assert exp.tracker.last_activity_since(exp.now + 1.0) is None


class TestTrackerReadsLastSeen:
    """The reader against the trace-scan oracle, on a bare bus."""

    CUSTOM = frozenset({"controller.recompute", "x.custom"})

    def setup_method(self):
        self.sim = Simulator(seed=0)
        self.bus = InstrumentationBus(self.sim)
        self.trace = TraceLog(self.bus)

    def advance(self, delay):
        self.sim.schedule(delay, lambda: None)
        self.sim.run()

    def assert_matches_scan(self, tracker, since):
        trace = self.trace
        assert tracker.last_activity_since(since) == trace.last_time(
            tracker.route_affecting, since=since
        )
        assert tracker.last_state_change_since(since) == trace.last_time(
            tracker.state_changing, since=since
        )

    def test_stock_and_custom_sets_match_the_scan(self):
        stock = ConvergenceTracker(self.bus)
        custom = ConvergenceTracker(
            self.bus, route_affecting=self.CUSTOM, state_changing={"fib.change"}
        )
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
            for tracker in (stock, custom):
                for since in (0.0, 0.6, self.sim.now, self.sim.now + 1.0):
                    self.assert_matches_scan(tracker, since)
        assert stock.last_route_affecting == 3.875
        assert stock.last_state_change == 3.875
        assert custom.last_route_affecting == 3.75
        assert custom.last_state_change == 0.5

    def test_published_records_carry_their_own_time(self):
        tracker = ConvergenceTracker(self.bus)
        self.bus.publish(TraceRecord(4.0, "bgp.update.rx", "n"))
        self.bus.publish(TraceRecord(6.5, "fib.change", "n"))
        self.bus.publish(TraceRecord(7.0, "link.state", "n"))
        assert self.sim.now == 0.0
        assert tracker.last_route_affecting == 6.5
        for since in (0.0, 4.0, 6.5, 6.6):
            self.assert_matches_scan(tracker, since)

    def test_survives_clear_counts(self):
        tracker = ConvergenceTracker(self.bus)
        self.advance(1.5)
        self.bus.record("bgp.decision", "n")
        self.bus.clear_counts()
        assert self.bus.counts == {}
        assert tracker.last_state_change == 1.5
        self.assert_matches_scan(tracker, 0.0)
        self.advance(1.0)
        self.bus.record("bgp.update.tx", "n")
        assert tracker.last_route_affecting == 2.5
        self.assert_matches_scan(tracker, 2.0)

    def test_tracker_made_later_sees_nothing_since_now(self):
        self.bus.record("bgp.update.tx", "n")
        self.bus.record("fib.change", "n")
        self.advance(2.0)
        tracker = ConvergenceTracker(self.bus)
        assert tracker.last_activity_since(self.sim.now) is None
        assert tracker.last_state_change_since(self.sim.now) is None
        self.assert_matches_scan(tracker, self.sim.now)


class TestSetMembersMatchByPrefix:
    """A set member covers its own category and everything nested under
    it — the bus's one rule (``bus.count``, subscription filters)."""

    def test_prefix_form_measures_the_spelled_out_instants(self):
        measurements = []
        for activity in ({"bgp.update"}, {"bgp.update.tx", "bgp.update.rx"}):
            exp = Experiment(
                clique(4),
                config=ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0)),
            ).start()
            exp.tracker = ConvergenceTracker(
                exp.net.bus, route_affecting=activity,
                state_changing=frozenset(),
            )
            measurements.append(measure_event(exp, lambda: exp.announce(1)))
        prefix_form, spelled_out = measurements
        assert prefix_form.updates_rx > 0
        assert prefix_form.convergence_time > 0.0
        assert dataclasses.asdict(prefix_form) == dataclasses.asdict(
            spelled_out
        )

    def test_silence_detector_takes_what_its_filter_delivers(self):
        from repro.framework.detector import SilenceDetector

        exp = Experiment(
            clique(4),
            config=ExperimentConfig(seed=1, timers=BGPTimers(mrai=1.0)),
        ).start()
        by_prefix = SilenceDetector(exp, categories={"bgp.update"})
        spelled = SilenceDetector(
            exp, categories={"bgp.update.tx", "bgp.update.rx"}
        )
        by_prefix.arm()
        spelled.arm()
        t_event = exp.now
        m = measure_event(exp, lambda: exp.announce(1))
        assert by_prefix.result(m.t_converged) == spelled.result(m.t_converged)
        assert by_prefix.result(m.t_converged).t_last_activity > t_event


class TestUnobservedRunBuildsNoPayload:
    """Laziness as it now holds: with trace off and no observer, no
    thunk runs — and it is still unobservable to anything that takes
    records."""

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
        before = exp.tracker.last_route_affecting
        exp.net.sim.schedule(1.0, lambda: None)
        exp.net.sim.run()
        for category in sorted(ROUTE_AFFECTING):
            bus.record_lazy(category, "n", self.explode)
        assert exp.tracker.last_route_affecting == exp.now > before

    def test_thunks_run_again_once_someone_takes_records(self):
        exp, _ = _one_withdrawal(2, 3, n=4, trace_level="off")
        bus = exp.net.bus
        trace = TraceLog(bus)
        for category in sorted(ROUTE_AFFECTING):
            with pytest.raises(AssertionError, match="nobody"):
                bus.record_lazy(category, "n", self.explode)
        bus.record_lazy("bgp.update.tx", "n", lambda: {"seen": 1})
        assert trace.records[-1].data == {"seen": 1}
        trace.detach()
        exp.net.enable_spans()
        for category in sorted(ROUTE_AFFECTING):
            with pytest.raises(AssertionError, match="nobody"):
                bus.record_lazy(category, "n", self.explode)


class TestMetricsOnlyRun:
    """Acceptance: trace_level='off' measures identically, retains nothing."""

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
        exp, m = _one_withdrawal(4, 5, trace_level="off")
        assert m.convergence_time > 0
        assert exp.net.trace.records == []
        # ...but the bus-side counts are still complete
        assert exp.net.bus.count("bgp.update.tx") > 0

    def test_route_level_keeps_only_route_affecting(self):
        from repro.eventsim import ROUTE_AFFECTING

        exp, _ = _one_withdrawal(4, 5, trace_level="route")
        records = exp.net.trace.records
        assert records
        assert all(r.category in ROUTE_AFFECTING for r in records)

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
