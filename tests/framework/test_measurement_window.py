"""MeasurementWindow, measure_event's one implementation, and the
ordering clamp.

Regression coverage for the ``t_state_converged`` ordering bug: with
category sets that are not nested (state-changing events the activity
set does not cover), or with a window opened mid-flight of an earlier
event, raw maxima could place the last state change *after* the last
activity — yielding ``t_converged < t_state_converged``.
``_finalize_instants`` clamps ``t_converged`` up; with the bus's nested
sets the clamp is a no-op.
"""

import dataclasses

import pytest

from repro.bgp.session import BGPTimers
from repro.eventsim import STATE_CHANGING
from repro.framework.convergence import (
    MeasurementWindow,
    _finalize_instants,
    measure_event,
)
from repro.framework.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentError,
)
from repro.topology.builders import clique


def experiment(seed=1, mrai=1.0, n=4):
    return Experiment(
        clique(n),
        config=ExperimentConfig(seed=seed, timers=BGPTimers(mrai=mrai)),
    ).start()


class TestFinalizeInstants:
    def test_nothing_happened_resolves_to_event(self):
        assert _finalize_instants(3.0, None, None) == (3.0, 3.0)

    def test_activity_without_state_change(self):
        assert _finalize_instants(0.0, 2.0, None) == (2.0, 0.0)

    def test_nested_sets_case_untouched(self):
        # stock sets: state change always <= activity; no clamping
        assert _finalize_instants(0.0, 5.0, 4.0) == (5.0, 4.0)

    def test_state_after_activity_clamps_convergence_up(self):
        # the regression: last state change beyond the last tracked
        # activity must drag t_converged with it, never invert the chain
        t_converged, t_state = _finalize_instants(0.0, 2.0, 6.0)
        assert (t_converged, t_state) == (6.0, 6.0)
        assert t_converged >= t_state

    def test_state_only_no_tracked_activity(self):
        assert _finalize_instants(1.0, None, 4.0) == (4.0, 4.0)


class TestNonNestedTrackerSets:
    def test_untracked_activity_keeps_ordering_chain(self):
        """Raw bus maxima over an activity set that misses the
        state-changing categories entirely still resolve to a
        well-ordered pair."""
        exp = experiment()
        t_event = exp.now
        exp.announce(1)
        exp.wait_converged()
        bus = exp.net.bus
        # activity = controller recomputes only; a pure-BGP run has none,
        # so every fib.change lands after the "last activity" (None).
        assert bus.last_time({"controller.recompute"}) is None
        last_state = bus.last_time(STATE_CHANGING)
        assert last_state > t_event
        t_converged, t_state = _finalize_instants(t_event, None, last_state)
        # the clamp raised t_converged to the final state change
        assert t_converged == t_state == last_state


class TestMeasurementWindow:
    def test_unbuilt_experiment_rejected(self):
        exp = Experiment(clique(4), config=ExperimentConfig(seed=1))
        with pytest.raises(ExperimentError):
            MeasurementWindow(exp)

    def test_measure_event_is_a_window_closed_at_settling(self):
        """Twin experiments, same seed: ``measure_event`` reads exactly
        what a window opened before the event and closed at the settling
        instant reads."""
        measured = experiment(seed=3, mrai=5.0)
        windowed = experiment(seed=3, mrai=5.0)
        via_measure = measure_event(
            measured, lambda: measured.announce(1), check_reachability=True
        )
        window = MeasurementWindow(windowed)
        windowed.announce(1)
        via_window = window.close(
            windowed.wait_converged(), check_reachability=True
        )
        assert via_measure.updates_tx > 0
        assert via_measure.all_reachable is True
        assert dataclasses.asdict(via_measure) == dataclasses.asdict(
            via_window
        )

    def test_double_close_rejected(self):
        exp = experiment()
        window = MeasurementWindow(exp, label="w")
        window.close()
        with pytest.raises(ValueError, match="already closed"):
            window.close()

    def test_idle_window_measures_zero(self):
        exp = experiment()
        m = MeasurementWindow(exp).close()
        assert m.convergence_time == 0.0
        assert m.updates_tx == 0

    def test_window_measures_an_announcement(self):
        exp = experiment()
        window = MeasurementWindow(exp)
        exp.announce(1)
        t_end = exp.wait_converged()
        m = window.close(t_end)
        assert m.updates_tx > 0
        assert m.t_settled >= m.t_converged >= m.t_state_converged
        assert m.t_state_converged > m.t_event

    def test_overlapping_windows_both_well_ordered(self):
        """The second window opens while the first event is still
        converging; both measurements must satisfy the ordering chain."""
        exp = experiment(mrai=5.0)
        prefix = exp.announce(1)
        exp.wait_converged()

        first = MeasurementWindow(exp, label="withdraw")
        exp.withdraw(1, prefix)
        exp.net.sim.run(until=exp.now + 0.5)  # mid-convergence

        second = MeasurementWindow(exp, label="announce")
        exp.announce(2)
        t_end = exp.wait_converged()

        m1 = first.close(t_end)
        m2 = second.close(t_end)
        for m in (m1, m2):
            assert m.t_settled >= m.t_converged
            assert m.t_converged >= m.t_state_converged >= m.t_event
        assert m2.t_event > m1.t_event
        # counters are per-window deltas: the earlier window saw at
        # least everything the later one did
        assert m1.updates_tx >= m2.updates_tx

    def test_counts_are_window_deltas(self):
        exp = experiment()
        first = MeasurementWindow(exp)
        exp.announce(1)
        exp.wait_converged()
        m1 = first.close()

        second = MeasurementWindow(exp)
        exp.announce(2)
        exp.wait_converged()
        m2 = second.close()
        # second window must not re-count the first announcement
        assert m2.updates_tx < m1.updates_tx + 10
