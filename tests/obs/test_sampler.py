"""Sampling profiler: both capture modes, stack aggregation, rendering."""

import contextlib
import os
import threading
import time

import pytest

from repro.eventsim import InstrumentationBus, Simulator
from repro.obs.sampler import (
    DEFAULT_HZ,
    MAX_HZ,
    StackSampler,
    collapsed_text,
    merge_stacks,
    top_frames,
)


#: docs/operations.md: at the default rate the sampler may cost the
#: emulator's hottest loop at most this share of its throughput.
MAX_SAMPLER_OVERHEAD = 0.05


def spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i * i for i in range(200))


class TestCapture:
    def test_signal_mode_samples_main_thread(self):
        sampler = StackSampler(hz=300.0)
        with sampler:
            spin(0.25)
        assert sampler.samples > 0
        assert sampler.counts
        # leaf frames name this module's spin loop somewhere
        assert any("spin" in stack for stack in sampler.counts)

    def test_thread_mode_samples_worker_thread(self):
        counts = {}

        def work():
            sampler = StackSampler(hz=300.0)
            sampler.start()
            spin(0.25)
            counts.update(sampler.stop())

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert counts, "thread-mode sampler captured nothing"
        assert any("spin" in stack for stack in counts)

    def test_stop_is_idempotent_and_restores(self):
        sampler = StackSampler(hz=100.0)
        sampler.start()
        first = sampler.stop()
        assert sampler.stop() == first  # second stop is a no-op
        # a new sampler can start again afterwards
        with StackSampler(hz=100.0):
            spin(0.02)

    def test_hz_bounds(self):
        assert StackSampler().hz == DEFAULT_HZ
        assert StackSampler(hz=10_000.0).hz == MAX_HZ
        with pytest.raises(ValueError):
            StackSampler(hz=0.0)

    def test_stack_keys_are_collapsed_format(self):
        sampler = StackSampler(hz=300.0)
        with sampler:
            spin(0.15)
        for stack in sampler.counts:
            frames = stack.split(";")
            assert all("." in frame or frame == "..." for frame in frames)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="timing gate; set REPRO_SLOW_TESTS=1 to run",
)
def test_default_rate_overhead_on_the_bus_loop():
    """The host loop is the instrumentation bus with nothing attached
    (every simulated message pays it); best-of-5 per side so the pair
    measures the sampler, not scheduler jitter."""

    def best_seconds(sampled: bool) -> float:
        best = float("inf")
        for _ in range(5):
            record = InstrumentationBus(Simulator(seed=0)).record
            with StackSampler() if sampled else contextlib.nullcontext():
                started = time.perf_counter()
                for _ in range(200_000):
                    record("bgp.update.tx", "as1", peer="as2")
                best = min(best, time.perf_counter() - started)
        return best

    plain, sampled = best_seconds(False), best_seconds(True)
    overhead = max(0.0, 1.0 - plain / sampled)
    assert overhead <= MAX_SAMPLER_OVERHEAD, (
        f"sampling at {DEFAULT_HZ:.0f} Hz costs the bus loop "
        f"{overhead:.1%} (limit {MAX_SAMPLER_OVERHEAD:.0%})"
    )


class TestAggregation:
    def test_merge_stacks_adds_counts(self):
        merged = merge_stacks([
            {"a.f;b.g": 3, "a.f": 1},
            {"a.f;b.g": 2, "c.h": 5},
            None,
        ])
        assert merged == {"a.f;b.g": 5, "a.f": 1, "c.h": 5}

    def test_top_frames_ranks_by_leaf_self_samples(self):
        counts = {"a.f;b.g": 6, "c.h;b.g": 4, "a.f;d.k": 2}
        ranked = top_frames(counts, top=2)
        assert ranked[0] == ("b.g", 10, 10 / 12)
        assert ranked[1] == ("d.k", 2, 2 / 12)

    def test_top_frames_empty(self):
        assert top_frames({}) == []

    def test_collapsed_text_deterministic(self):
        counts = {"b.f": 2, "a.f": 2, "c.f": 9}
        text = collapsed_text(counts)
        assert text.splitlines() == ["c.f 9", "a.f 2", "b.f 2"]
