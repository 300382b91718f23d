"""Property suite: bus delivery and category-prefix semantics.

The bus's compiled routes and the lazy publishing path both reimplement
the subscription contract (prefix filters, every matching record
delivered) for speed; these properties pin that contract against a
straightforward reference model over randomized category streams,
including the edge case that bit the route compiler hardest: the empty
prefix (matches only the empty category or categories starting with
``"."`` — *not* everything; ``categories=None`` is "everything").  A
scan of the delivered records for the last one in a category set
follows the same rule as the bus's ``last_time``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.eventsim import Simulator  # noqa: E402

pytestmark = pytest.mark.properties

BOUNDED = settings(max_examples=25, deadline=None, derandomize=True)

CATEGORIES = st.sampled_from(
    ["bgp", "bgp.update", "bgp.update.tx", "fib.change", "x", ""]
)
STREAMS = st.lists(CATEGORIES, min_size=0, max_size=40)


def matches(category, prefix):
    """The documented prefix rule (TraceRecord.matches)."""
    return category == prefix or category.startswith(prefix + ".")


def publish_stream(stream, *, categories=None, lazy=False):
    """Publish a stream against one subscriber; returns delivered records."""
    bus = Simulator(seed=0).bus
    got = []
    bus.subscribe(got.append, categories=categories)
    for index, category in enumerate(stream):
        if lazy:
            bus.record_lazy(category, "n", lambda i=index: {"i": i})
        else:
            bus.record(category, "n", i=index)
    return bus, got


class TestSamplingStride:
    @given(stream=STREAMS, lazy=st.booleans())
    @BOUNDED
    def test_stride_one_delivers_everything(self, stream, lazy):
        _, got = publish_stream(stream, lazy=lazy)
        assert [r.data["i"] for r in got] == list(range(len(stream)))


class TestPrefixFilter:
    @given(stream=STREAMS, prefix=CATEGORIES, lazy=st.booleans())
    @BOUNDED
    def test_filter_matches_reference_model(self, stream, prefix, lazy):
        _, got = publish_stream(stream, categories=(prefix,), lazy=lazy)
        expected = [c for c in stream if matches(c, prefix)]
        assert [r.category for r in got] == expected

    @given(stream=STREAMS, lazy=st.booleans())
    @BOUNDED
    def test_empty_prefix_is_not_a_wildcard(self, stream, lazy):
        """``("",)`` matches only the empty category (or ``.``-rooted
        ones) — subscribing to everything is ``categories=None``."""
        _, got = publish_stream(stream, categories=("",), lazy=lazy)
        expected = [c for c in stream if c == "" or c.startswith(".")]
        assert [r.category for r in got] == expected

    @given(stream=STREAMS, lazy=st.booleans())
    @BOUNDED
    def test_counts_are_complete_regardless_of_filters(self, stream, lazy):
        bus, _ = publish_stream(stream, categories=("bgp.update",), lazy=lazy)
        assert bus.records_published == len(stream)
        assert sum(bus.counts.values()) == len(stream)


class TestLazyEagerAgreement:
    @given(
        stream=STREAMS,
        prefix=st.sampled_from([None, "bgp", "bgp.update", ""]),
    )
    @BOUNDED
    def test_lazy_and_eager_deliver_identical_records(self, stream, prefix):
        categories = (prefix,) if prefix is not None else None
        _, eager = publish_stream(stream, categories=categories, lazy=False)
        _, lazy = publish_stream(stream, categories=categories, lazy=True)
        assert eager == lazy


class TestLastTimeAgreement:
    @given(
        steps=st.lists(
            st.tuples(CATEGORIES, st.sampled_from([0.0, 0.25, 1.0])),
            max_size=30,
        ),
        prefixes=st.sets(CATEGORIES, max_size=3),
        since=st.sampled_from([0.0, 0.5, 2.0, 100.0]),
    )
    @example(
        steps=[("bgp", 0.25), ("bgp.update.tx", 1.0), ("x", 0.0)],
        prefixes={"bgp"},
        since=0.5,
    )
    @BOUNDED
    def test_prefix_and_spelled_out_forms_agree(self, steps, prefixes, since):
        """For any category set: the prefix form reads what the set of
        concrete categories it covers reads, and a scan of every record
        reads what the bus's ``last_seen`` table reads."""
        sim = Simulator(seed=0)
        bus = sim.bus
        records = []
        bus.subscribe(records.append)

        def last_time(categories):
            return max(
                (
                    r.time for r in records if r.time >= since
                    and any(matches(r.category, p) for p in categories)
                ),
                default=None,
            )

        for category, delay in steps:
            sim.schedule(delay, lambda: None)
            sim.run()
            bus.record(category, "n")
        spelled = {
            category for category, _ in steps
            if any(matches(category, p) for p in prefixes)
        }
        assert last_time(prefixes) == last_time(spelled)
        assert bus.last_time(prefixes) == bus.last_time(spelled)
        last = bus.last_time(prefixes)
        expected = last if last is not None and last >= since else None
        assert last_time(prefixes) == expected
