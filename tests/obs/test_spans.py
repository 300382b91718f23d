"""Unit tests for the span tracker and causal context plumbing."""

import pytest

from repro.eventsim import Simulator
from repro.obs import (
    SPAN_CATEGORIES,
    Span,
    SpanTracker,
    activation,
    last_span_activation,
)


def make_bus():
    """A bus with a tracker attached as ``Network.enable_spans`` does:
    the context slot plus a subscription."""
    sim = Simulator(seed=0)
    bus = sim.bus
    obs = SpanTracker(sim)
    bus.obs = obs
    bus.subscribe(obs.on_record, categories=SPAN_CATEGORIES, name="spans")
    return sim, bus, obs


class TestAutoSpans:
    def test_route_affecting_record_becomes_span(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.update.tx", "as1", prefix="10.0.0.0/24")
        assert len(obs.spans) == 1
        span = obs.spans[0]
        assert span.category == "bgp.update.tx"
        assert span.node == "as1"
        assert span.data["prefix"] == "10.0.0.0/24"

    def test_non_spanned_category_ignored(self):
        sim, bus, obs = make_bus()
        bus.record("link.quality", "as1")
        bus.record("speaker.session.up", "speaker")
        assert len(obs.spans) == 0
        # counters still see everything
        assert bus.counts["link.quality"] == 1

    def test_no_current_context_starts_root(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.originate", "as1")
        span = obs.spans[0]
        assert span.parent_id is None
        assert span.cause_id == span.span_id

    def test_current_context_parents_span(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.originate", "as1")
        root_ctx = obs.last_ctx
        prev = obs.swap(root_ctx)
        bus.record("bgp.decision", "as1")
        obs.swap(prev)
        child = obs.spans[1]
        assert child.parent_id == root_ctx[1]
        assert child.cause_id == root_ctx[0]

    def test_span_ids_monotonic_from_one(self):
        sim, bus, obs = make_bus()
        for _ in range(3):
            bus.record("bgp.decision", "as1")
        assert [s.span_id for s in obs.spans] == [1, 2, 3]

    def test_span_timestamps_are_sim_now(self):
        sim, bus, obs = make_bus()
        sim.schedule(2.5, lambda: bus.record("fib.change", "as1"))
        sim.run()
        assert obs.spans[0].t_start == 2.5
        assert obs.spans[0].t_end == 2.5


class TestExplicitSpans:
    def test_emit_root_ignores_current_context(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.originate", "as1")
        obs.swap(obs.last_ctx)
        ctx = obs.emit_root("link.down", "l1", a="as1", b="as2")
        root = obs.spans[-1]
        assert root.parent_id is None
        assert root.cause_id == ctx[0] == root.span_id
        # current context is restored afterwards
        assert obs.current == (1, 1)

    def test_emit_inherits_current(self):
        sim, bus, obs = make_bus()
        root = obs.emit_root("bgp.crash", "as1")
        obs.swap(root)
        obs.emit("bgp.session.down", "as1")
        child = obs.spans[-1]
        assert child.parent_id == root[1]

    def test_annotate_last_adds_data_and_stretches_start(self):
        sim, bus, obs = make_bus()
        sim.schedule(5.0, lambda: bus.record("bgp.update.tx", "as1"))
        sim.run()
        obs.annotate_last(t_start=2.0, mrai_wait=3.0)
        span = obs.spans[-1]
        assert span.t_start == 2.0 and span.t_end == 5.0
        assert span.data["mrai_wait"] == 3.0

    def test_annotate_last_never_moves_start_later(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.update.tx", "as1")
        obs.annotate_last(t_start=99.0)
        assert obs.spans[-1].t_start == 0.0


class TestPayloadOwnership:
    """A payload belongs to its occurrence: takers read it, an
    annotation copies it, JSON shape is checked where JSON is made."""

    def test_span_holds_the_records_payload_until_annotated(self):
        sim, bus, obs = make_bus()
        seen = []
        bus.subscribe(seen.append)
        bus.record("bgp.update.tx", "as1", peer="as2")
        assert obs.spans[-1].data is seen[-1].data
        obs.annotate_last(mrai_wait=1.5)
        assert obs.spans[-1].data == {"peer": "as2", "mrai_wait": 1.5}
        assert seen[-1].data == {"peer": "as2"}

    def test_json_shaped_payload_is_snapshotted_uncopied(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.decision", "as1", prefix="p", paths=[["a", "b"]])
        assert obs.snapshot()[0]["data"] is obs.spans[0].data

    def test_categories_cannot_be_configured(self):
        # annotate_last() trusts that the span just made is the
        # caller's; a tracker skipping some categories would annotate a
        # stranger's.
        with pytest.raises(TypeError):
            SpanTracker(Simulator(seed=0), categories={"bgp.decision"})

    def test_annotating_publishers_are_spanned(self):
        # BGPSession._send_update and IDRController._recompute_dirty
        # publish these and annotate the span straight after.
        assert {"bgp.update.tx", "controller.recompute"} <= SPAN_CATEGORIES


class TestActivation:
    def test_activation_swaps_and_restores(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.originate", "as1")
        ctx = obs.last_ctx
        assert obs.current is None
        with activation(obs, ctx):
            assert obs.current == ctx
        assert obs.current is None

    def test_activation_with_no_tracker_is_noop(self):
        with activation(None, (1, 1)):
            pass  # must not raise

    def test_last_span_activation(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.withdraw", "as1")
        with last_span_activation(obs):
            bus.record("bgp.decision", "as1")
        assert obs.spans[1].parent_id == obs.spans[0].span_id


class TestSnapshotAndClear:
    def test_snapshot_roundtrips_via_from_dict(self):
        sim, bus, obs = make_bus()
        bus.record("bgp.update.tx", "as1", prefix="10.0.0.0/24")
        dumped = obs.snapshot()
        restored = [Span.from_dict(d) for d in dumped]
        assert restored == obs.spans

    def test_span_categories_is_route_affecting(self):
        from repro.eventsim import ROUTE_AFFECTING

        assert SPAN_CATEGORIES == frozenset(ROUTE_AFFECTING)

    def test_detached_bus_has_zero_span_path(self):
        sim = Simulator(seed=0)
        bus = sim.bus
        assert bus.obs is None
        bus.record("bgp.update.tx", "as1")  # must not raise
        assert bus.counts["bgp.update.tx"] == 1

    def test_records_reach_the_tracker_only_by_subscription(self):
        sim = Simulator(seed=0)
        bus = sim.bus
        obs = bus.obs = SpanTracker(sim)
        bus.record("bgp.update.tx", "as1")
        assert obs.spans == []
        bus.subscribe(obs.on_record, categories=SPAN_CATEGORIES)
        bus.record("bgp.update.tx", "as1")
        assert [s.category for s in obs.spans] == ["bgp.update.tx"]
