"""Acceptance tests for the streaming instrumentation refactor.

Two guarantees the refactor must keep:

1. the streaming :class:`ConvergenceTracker` produces bit-identical
   measurements to the retained-trace scan (the oracle), and
2. a metrics-only run (``trace_level="off"``) completes the paper's
   16-AS clique withdrawal experiment with the same convergence times
   while retaining zero trace records.
"""

import dataclasses

import pytest

from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    run_scenario_once,
    sdn_set_for,
)
from repro.eventsim import ROUTE_AFFECTING
from repro.framework.convergence import (
    STATE_CHANGING,
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
