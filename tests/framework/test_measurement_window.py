"""MeasurementWindow and the overlapping-window/custom-set edge case.

Regression coverage for the ``t_state_converged`` ordering bug: with
custom tracker category sets that are not nested (state-changing events
the activity set does not track), or with a window opened mid-flight of
an earlier event, the raw tracker maxima could place the last state
change *after* the last tracked activity — yielding
``t_converged < t_state_converged``.  ``_finalize_instants`` now clamps
``t_converged`` up; with the stock nested sets the clamp is a no-op.
"""

import pytest

from repro.bgp.session import BGPTimers
from repro.framework.convergence import (
    STATE_CHANGING,
    ConvergenceTracker,
    MeasurementWindow,
    _finalize_instants,
    measure_event,
)
from repro.framework.experiment import Experiment, ExperimentConfig
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
        """A tracker whose activity set misses the state-changing
        categories entirely still yields a well-ordered measurement."""
        exp = experiment()
        # activity = controller recomputes only; a pure-BGP run has none,
        # so every fib.change lands after the "last activity" (None).
        exp.tracker = ConvergenceTracker(
            exp.net.bus,
            route_affecting=frozenset({"controller.recompute"}),
            state_changing=STATE_CHANGING,
        )
        m = measure_event(exp, lambda: exp.announce(1))
        assert m.fib_changes > 0
        assert m.t_converged >= m.t_state_converged > m.t_event
        # the clamp raised t_converged to the final state change
        assert m.t_converged == m.t_state_converged


class TestMeasurementWindow:
    def test_requires_tracker(self):
        exp = experiment()
        exp.tracker = None
        with pytest.raises(ValueError, match="ConvergenceTracker"):
            MeasurementWindow(exp)

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
