"""Property suite: the kernel pops event-for-event like a model of it.

For any randomized event program — duplicate timestamps on a lattice,
zero-delay self-schedules, far-future outliers and cancellations —
running the same program on the :class:`Simulator` and on
:class:`ModelKernel`, a reference interpreter small enough to be read
as the specification, yields the exact same execution log, final clock
and processed-event count.  Programs may route any event through a
FIFO lane (``sim.fifo_lane(d).schedule``); to the model that is just
``schedule(d)``.

Examples are bounded and derandomized (same discipline as
``test_fault_properties``) so the suite stays fast and reproducible.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.eventsim import Simulator  # noqa: E402

pytestmark = pytest.mark.properties

BOUNDED = settings(max_examples=25, deadline=None, derandomize=True)

#: delay pools stressing distinct kernel regimes: an exact-collision
#: lattice (many identical timestamps), continuous values, zero delays
#: (same-instant cascades), and far-future outliers.
LATTICE = st.sampled_from([0.0, 0.001, 0.01, 0.01, 0.5, 1.0])
CONTINUOUS = st.floats(
    min_value=0.0, max_value=20.0, allow_nan=False, width=32
)
FAR_FUTURE = st.sampled_from([500.0, 9_999.0, 123_456.0])
DELAYS = st.one_of(LATTICE, CONTINUOUS, FAR_FUTURE)


class ModelKernel:
    """The kernel's contract as a plain list: the pending entry with
    the least ``(time, seq)`` runs next; cancelling removes an entry
    and is a no-op on one that is gone (cancelled or fired)."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._pending = []
        self._seq = 0

    def schedule(self, delay, callback):
        entry = (self.now + delay, self._seq, callback)
        self._seq += 1
        self._pending.append(entry)
        return entry

    def cancel(self, entry):
        self._pending = [e for e in self._pending if e is not entry]

    def run(self):
        while self._pending:
            entry = min(self._pending, key=lambda e: e[:2])
            self.cancel(entry)
            self.now = entry[0]
            self.events_processed += 1
            entry[2]()


def on_both(program):
    """Run ``program(kernel) -> log`` on the simulator and on the
    model; each result is (log, final clock, events processed)."""
    results = []
    for kernel in (Simulator(seed=1), ModelKernel()):
        log = program(kernel)
        kernel.run()
        results.append((log, kernel.now, kernel.events_processed))
    return results


@st.composite
def event_programs(draw):
    """A script of top-level events, each optionally spawning children
    and optionally cancelling its predecessor."""
    n = draw(st.integers(min_value=1, max_value=30))
    return [
        {
            "delay": draw(DELAYS),
            "children": draw(st.lists(DELAYS, max_size=3)),
            "cancel_prev": draw(st.booleans()),
        }
        for _ in range(n)
    ]


def load_program(program, sim):
    """Schedule one script on ``sim``; returns its execution log."""
    log = []

    def make_callback(tag, children):
        def callback():
            log.append((tag, sim.now))
            for branch, delay in enumerate(children):
                # one level of zero-or-more children per event keeps the
                # program finite while still producing same-instant
                # cascades when delay == 0.
                sim.schedule(delay, make_callback((tag, branch), ()))

        return callback

    handles = []
    for index, item in enumerate(program):
        handle = sim.schedule(
            item["delay"], make_callback(index, tuple(item["children"]))
        )
        if item["cancel_prev"] and len(handles) >= 1:
            sim.cancel(handles[-1])
        handles.append(handle)
    return log


def schedule_via(kernel, lane, delay, callback):
    """Schedule on ``kernel``, through the FIFO lane for ``delay`` when
    ``lane`` is set and the kernel has lanes (the model has none)."""
    if lane and isinstance(kernel, Simulator):
        return kernel.fifo_lane(delay).schedule(callback)
    return kernel.schedule(delay, callback)


@st.composite
def lane_programs(draw):
    """A script whose events, children included, each go through the
    heap or a lane, on the collision lattice, cancelling some."""
    n = draw(st.integers(min_value=1, max_value=30))
    routed = st.tuples(LATTICE, st.booleans())
    return [
        {
            "delay": draw(LATTICE),
            "lane": draw(st.booleans()),
            "children": draw(st.lists(routed, max_size=3)),
            "cancel": draw(st.sampled_from(["none", "prev", "self"])),
        }
        for _ in range(n)
    ]


def load_lane_program(program, kernel):
    """Schedule one lane script on ``kernel``; returns its log."""
    log = []

    def make_callback(tag, children):
        def callback():
            log.append((tag, kernel.now))
            for branch, (delay, lane) in enumerate(children):
                schedule_via(
                    kernel, lane, delay, make_callback((tag, branch), ())
                )

        return callback

    handles = []
    for index, item in enumerate(program):
        handle = schedule_via(
            kernel, item["lane"], item["delay"],
            make_callback(index, tuple(item["children"])),
        )
        if item["cancel"] == "prev" and handles:
            kernel.cancel(handles[-1])
        elif item["cancel"] == "self":
            kernel.cancel(handle)
        handles.append(handle)
    return log


class TestKernelMatchesModel:
    @given(program=event_programs())
    @BOUNDED
    def test_program_execution_order(self, program):
        simulated, model = on_both(lambda sim: load_program(program, sim))
        assert simulated == model

    @given(program=lane_programs())
    @BOUNDED
    def test_lane_program_execution_order(self, program):
        simulated, model = on_both(
            lambda kernel: load_lane_program(program, kernel)
        )
        assert simulated == model

    @given(delays=st.lists(LATTICE, min_size=1, max_size=60))
    @BOUNDED
    def test_duplicate_timestamp_storm(self, delays):
        def storm(sim):
            order = []
            for index, delay in enumerate(delays):
                sim.schedule(delay, lambda i=index: order.append((i, sim.now)))
            return order

        simulated, model = on_both(storm)
        assert simulated == model

    @given(
        delays=st.lists(CONTINUOUS, min_size=2, max_size=40),
        cancel_stride=st.integers(min_value=2, max_value=5),
    )
    @BOUNDED
    def test_cancellation_stride(self, delays, cancel_stride):
        def strided(sim):
            order = []
            handles = [
                sim.schedule(d, lambda i=i: order.append(i))
                for i, d in enumerate(delays)
            ]
            for handle in handles[::cancel_stride]:
                sim.cancel(handle)
            return order

        simulated, model = on_both(strided)
        assert simulated == model
