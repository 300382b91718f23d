"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.eventsim import SimulationError, Simulator
from repro.eventsim.metrics import time_by_layer


# One param, not a choice: the heap is the queue.  The ``[heap]`` id is
# kept so these tests keep the names earlier runs recorded them under.
@pytest.fixture(params=["heap"])
def sim():
    return Simulator(seed=42)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self, sim):
        order = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["x", "y", "z"]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(5.5, lambda: None)
        sim.run()
        assert sim.now == 5.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_event_can_schedule_more_events(self, sim):
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(1.0, lambda: chain(2))
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        ran = []
        event = sim.schedule(1.0, lambda: ran.append(1))
        sim.cancel(event)
        sim.run()
        assert ran == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_foreground() == 0

    def test_cancel_updates_foreground_count(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert sim.pending_foreground() == 1
        sim.cancel(event)
        assert sim.pending_foreground() == 0

    def test_cancel_after_fire_is_a_noop(self, sim):
        """A handle kept past its firing must not count the event down
        again: at -1 the next foreground event reads as "settled"."""
        fired = sim.schedule(1.0, lambda: None)
        sim.run()
        sim.cancel(fired)
        assert sim.pending_foreground() == 0
        ran = []
        sim.schedule(1.0, lambda: ran.append(sim.now))
        assert sim.pending_foreground() == 1
        sim.run_until_settled()
        assert ran == [2.0]


class TestRunUntil:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert sim.pending_foreground() == 1

    def test_run_until_executes_due_events(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]

    def test_empty_queue_advances_to_until(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_guards_livelock(self, sim):
        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestRunUntilSettled:
    def test_settles_when_only_background_remains(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(100.0, lambda: None, background=True)
        settled_at = sim.run_until_settled()
        assert settled_at == 1.0

    def test_background_before_settle_point_still_runs(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("fg"))
        sim.schedule(1.0, lambda: order.append("bg"), background=True)
        sim.run_until_settled()
        assert order == ["bg", "fg"]

    def test_new_foreground_from_callback_extends_run(self, sim):
        seen = []
        sim.schedule(
            1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now))
        )
        sim.run_until_settled()
        assert seen == [2.0]

    def test_horizon_violation_raises(self, sim):
        sim.schedule(1000.0, lambda: None, label="too-late")
        with pytest.raises(SimulationError, match="too-late"):
            sim.run_until_settled(horizon=10.0)

    def test_settled_with_empty_queue(self, sim):
        assert sim.run_until_settled() == 0.0


class TestTieBreak:
    """Regression pin: duplicate timestamps pop in scheduling order.

    The queue orders events by ``(time, seq)``; this is the
    determinism contract every digest fixture rests on, so the exact
    pop order for a burst of same-time events is pinned here.
    """

    def test_duplicate_timestamps_pop_in_seq_order(self, sim):
        order = []
        # interleave two timestamps, scheduled out of time order
        for tag in range(8):
            sim.schedule(2.0 if tag % 2 else 1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_event_ordering_is_time_then_seq(self):
        sim = Simulator(seed=0)
        a = sim.schedule(1.0, lambda: None)
        b = sim.schedule(1.0, lambda: None)
        c = sim.schedule(0.5, lambda: None)
        assert a < b and c < a
        assert (a.time, a.seq) < (b.time, b.seq)

    def test_zero_delay_self_schedules_run_fifo(self, sim):
        order = []

        def chain(tag, depth):
            order.append(tag)
            if depth:
                sim.schedule(0.0, lambda: chain(tag, depth - 1))

        sim.schedule(0.0, lambda: chain("a", 2))
        sim.schedule(0.0, lambda: chain("b", 2))
        sim.run()
        # each round of the same-instant cascade alternates in seq order
        assert order == ["a", "b", "a", "b", "a", "b"]


class TestQueueKeys:
    """Each event is its own heap entry, a list ``[time, seq, callback,
    ...]`` the C heap compares item by item; ``seq`` is unique, so no
    comparison ever reaches the callback slot."""

    def test_event_is_its_own_heap_entry(self, sim):
        event = sim.schedule(1.0, lambda: None, label="x")
        assert sim._queue == [event] and sim._queue[0] is event
        assert (event.time, event.seq, event.label) == (1.0, 0, "x")
        assert not event.background and not event.cancelled
        with pytest.raises(AttributeError):
            event.cancelled = True  # only the kernel writes

    def test_queues_never_compare_events(self, sim):
        class Uncomparable:
            """A callback that fails any comparison made on it."""

            def __init__(self, action):
                self.action = action

            def __call__(self):
                self.action()

            def _compared(self, other):
                raise AssertionError("a queue compared two callbacks")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _compared
            __hash__ = object.__hash__

        order = []
        # duplicate-timestamp storm: three instants, scheduled
        # interleaved.
        handles = [
            sim.schedule(
                (tag % 3) * 0.5,
                Uncomparable(lambda t=tag: order.append(t)),
            )
            for tag in range(120)
        ]
        for handle in handles[::7]:
            sim.cancel(handle)

        # zero-delay cascade, far past everything else pending.
        def chain(tag, depth):
            order.append((tag, depth))
            if depth:
                sim.schedule(
                    0.0, Uncomparable(lambda: chain(tag, depth - 1))
                )

        sim.schedule(5000.0, Uncomparable(lambda: chain("a", 2)))
        sim.schedule(5000.0, Uncomparable(lambda: chain("b", 2)))
        sim.run()
        live = [tag for tag in range(120) if tag % 7]
        assert order == [
            tag for instant in range(3) for tag in live if tag % 3 == instant
        ] + [("a", 2), ("b", 2), ("a", 1), ("b", 1), ("a", 0), ("b", 0)]


class TestFifoLane:
    """A lane holds foreground events at one fixed delay in a deque; the
    kernel pops the least ``(time, seq)`` of the heap head and the lane
    heads, so a lane event runs exactly where ``schedule(delay)`` would
    have put it."""

    def test_heap_and_lane_events_at_one_time_run_in_seq_order(self, sim):
        order = []
        lane = sim.fifo_lane(1.0)
        lane.schedule(lambda: order.append("lane0"))
        sim.schedule(1.0, lambda: order.append("heap1"))
        lane.schedule(lambda: order.append("lane2"))
        sim.schedule(
            0.5, lambda: sim.schedule(0.5, lambda: order.append("heap3"))
        )
        sim.run()
        assert order == ["lane0", "heap1", "lane2", "heap3"]

    def test_lane_event_is_an_ordinary_event(self, sim):
        event = sim.fifo_lane(0.25).schedule(lambda: None, label="out")
        assert (event.time, event.seq, event.label) == (0.25, 0, "out")
        assert not event.background and not event.cancelled
        assert sim.schedule(0.25, lambda: None).seq == 1

    def test_cancelled_lane_head_is_skipped(self, sim):
        ran = []
        lane = sim.fifo_lane(1.0)
        head = lane.schedule(lambda: ran.append("head"))
        lane.schedule(lambda: ran.append("next"))
        sim.cancel(head)
        assert sim.pending_foreground() == 1
        assert sim.run_until_settled() == 1.0
        assert ran == ["next"] and sim.events_processed == 1

    def test_pending_foreground_counts_lane_events(self, sim):
        lane = sim.fifo_lane(0.01)
        lane.schedule(lambda: None)
        lane.schedule(lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.pending_foreground() == 3
        assert sim.step()
        assert sim.pending_foreground() == 2

    def test_run_until_stops_at_a_lane_head(self, sim):
        seen = []
        sim.fifo_lane(5.0).schedule(lambda: seen.append(sim.now))
        sim.run(until=2.0)
        assert seen == [] and sim.now == 2.0
        # a heap event scheduled now, due before the lane head, runs
        # first: the stopped run left no stale head behind.
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0, 5.0]

    def test_horizon_error_names_the_lane_head(self, sim):
        sim.fifo_lane(1000.0).schedule(lambda: None, label="slow-lane")
        with pytest.raises(SimulationError, match="slow-lane"):
            sim.run_until_settled(horizon=10.0)
        assert sim.pending_foreground() == 1

    def test_one_lane_per_delay(self, sim):
        assert sim.fifo_lane(0.01) is sim.fifo_lane(0.01)
        assert sim.fifo_lane(0.01) is not sim.fifo_lane(0.02)
        assert sim.fifo_lane(0.01).delay == 0.01

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.fifo_lane(-0.5)

    def test_lanes_follow_the_clock(self, sim):
        order = []
        lane = sim.fifo_lane(0.5)

        def tick(tag, depth):
            order.append((tag, sim.now))
            if depth:
                lane.schedule(lambda: tick(tag, depth - 1))

        lane.schedule(lambda: tick("lane", 2))
        sim.schedule(0.75, lambda: order.append(("heap", sim.now)))
        sim.run()
        assert order == [
            ("lane", 0.5), ("heap", 0.75), ("lane", 1.0), ("lane", 1.5)
        ]


class TestCounterDesync:
    def test_out_of_sync_foreground_counter_raises(self, sim):
        # Not an assert: under ``python -O`` that would become a
        # TypeError on the missing head.
        sim._live_foreground += 1
        with pytest.raises(SimulationError, match="out of sync"):
            sim.run_until_settled()


class TestRng:
    def test_streams_are_deterministic_across_instances(self):
        a = Simulator(seed=7).rng("x").random()
        b = Simulator(seed=7).rng("x").random()
        assert a == b

    def test_streams_are_independent(self):
        sim = Simulator(seed=7)
        first = sim.rng("x").random()
        sim2 = Simulator(seed=7)
        sim2.rng("y").random()  # consuming another stream...
        assert sim2.rng("x").random() == first  # ...does not perturb x

    def test_different_seeds_differ(self):
        assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()

    def test_same_stream_is_cached(self, sim):
        assert sim.rng("x") is sim.rng("x")


def mixed_schedule(sim):
    """Heap events (foreground and background) and two lanes, some
    cancelled before the run and some from callbacks, which also
    schedule more; one foreground event last, so settling runs it all."""
    rng = random.Random(11)
    lanes = (sim.fifo_lane(0.01), sim.fifo_lane(0.25))
    handles = []

    def callback(depth):
        def fire():
            for _ in range(rng.randrange(3) if depth else 0):
                add(depth - 1)
            if rng.random() < 0.3:
                sim.cancel(rng.choice(handles))  # pending or spent
        return fire

    def add(depth):
        kind = rng.randrange(4)
        if kind == 0:
            delay = rng.choice((0.0, 0.01, 0.25, 0.5))
            handles.append(sim.schedule(delay, callback(depth)))
        elif kind == 1:
            handles.append(
                sim.schedule(rng.random(), callback(depth), background=True)
            )
        else:
            handles.append(lanes[kind - 2].schedule(callback(depth)))

    for _ in range(40):
        add(4)
    for handle in handles[::7]:
        sim.cancel(handle)
    sim.schedule(100.0, lambda: None, label="last")


RUN_MODES = {
    "run": lambda sim: sim.run(),
    "run_until_settled": lambda sim: sim.run_until_settled(),
    "step": lambda sim: list(iter(sim.step, False)),
}


class TestOneDispatchLoop:
    """``step`` is the one per-event dispatch and ``run`` and
    ``run_until_settled`` share one loop around it: on one schedule all
    three pop the same events in the same order and show the dispatch
    hook each exactly once."""

    @staticmethod
    def drive(name):
        sim = Simulator(seed=3)
        popped = []
        hooked = [0.0]

        def hook(event, wall):
            popped.append((event.time, event.seq))
            hooked[0] += wall

        sim.set_dispatch_hook(hook)
        walls = time_by_layer(sim)  # chains the hook above
        mixed_schedule(sim)
        RUN_MODES[name](sim)
        return sim, popped, hooked[0], walls

    def test_every_run_mode_dispatches_the_same_events(self):
        reference = self.drive("run")[1]
        assert len(reference) > 100
        assert reference == sorted(reference)
        for name in RUN_MODES:
            sim, popped, hooked, walls = self.drive(name)
            assert popped == reference, name
            assert sim.events_processed == len(popped)
            assert len({seq for _, seq in popped}) == len(popped)
            assert sim.pending_foreground() == 0 and sim.now == 100.0
            assert sum(walls.values()) == pytest.approx(hooked)
