"""JobManager: dedup, quotas, backpressure, cancellation, recording."""

import asyncio

import pytest

from repro.config import runspec_from_json
from repro.obs.registry import RunRegistry
from repro.runner import ParallelRunner, ResultCache
from repro.service.manager import (
    JobManager,
    QueueFull,
    QuotaExceeded,
)

BASE = {"scenario": "withdrawal", "n": 5, "sdn_count": 2, "mrai": 1.0}


def spec_for(seed: int = 7, **overrides):
    return runspec_from_json({**BASE, "seed": seed, **overrides})


def run(coro):
    return asyncio.run(coro)


async def manager_session(body, **kwargs):
    kwargs.setdefault("concurrency", 1)
    manager = JobManager(**kwargs)
    manager.start()
    try:
        return await body(manager)
    finally:
        await manager.aclose()


class TestExecution:
    def test_submit_executes_and_finishes(self):
        async def body(manager):
            (job,) = manager.submit_many([spec_for()], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        job = run(manager_session(body))
        assert job.state == "done"
        assert job.record.ok
        assert job.record.measurement.convergence_time > 0
        assert [e["event"] for e in job.events] == [
            "sweep_started", "job_started", "job_finished", "sweep_finished",
        ]

    def test_concurrent_same_digest_executes_once(self):
        async def body(manager):
            spec = spec_for()
            (a,) = manager.submit_many([spec], "alice")
            (b,) = manager.submit_many([spec], "bob")
            assert a is b
            assert a.clients == {"alice", "bob"}
            await asyncio.wait_for(a.done.wait(), 60)
            return a

        job = run(manager_session(body))
        starts = [e for e in job.events if e["event"] == "job_started"]
        assert len(starts) == 1

    def test_failed_job_reaches_failed_state(self):
        async def body(manager):
            # sdn_members outside the topology raise inside the trial
            spec = spec_for(seed=3)
            object.__setattr__(spec, "sdn_members", (999,))
            (job,) = manager.submit_many([spec], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        job = run(manager_session(body))
        assert job.state == "failed"
        assert not job.record.ok
        assert job.record.error


class TestDedup:
    def test_cache_hit_is_immediately_done(self, tmp_path):
        spec = spec_for()
        cache = ResultCache(tmp_path / "cache")
        baseline = ParallelRunner(1, cache=cache).run([spec])[0]
        assert baseline.ok

        async def body(manager):
            (job,) = manager.submit_many([spec], "alice")
            return job

        job = run(manager_session(body, cache=cache))
        assert job.state == "done"
        assert job.from_cache
        assert job.record.cached
        assert (
            job.record.measurement.convergence_time
            == baseline.measurement.convergence_time
        )

    def test_registry_hit_is_immediately_done(self, tmp_path):
        spec = spec_for()
        registry_path = str(tmp_path / "runs.sqlite")
        runner = ParallelRunner(1, registry=registry_path)
        baseline = runner.run([spec])[0]
        runner.registry_sink.registry.close()
        assert baseline.ok

        async def body(manager):
            (job,) = manager.submit_many([spec], "alice")
            return job

        job = run(manager_session(body, registry_path=registry_path))
        assert job.state == "done"
        assert job.from_cache
        assert (
            job.record.measurement.convergence_time
            == baseline.measurement.convergence_time
        )

    def test_registry_hit_serves_the_payloads_the_row_stores(self, tmp_path):
        """A registry-answered job carries every payload its row stores:
        the metrics snapshot and the resources, layer split included."""
        spec = spec_for(metrics=True)
        registry_path = str(tmp_path / "runs.sqlite")

        async def body(manager):
            (job,) = manager.submit_many([spec], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        first = run(manager_session(body, registry_path=registry_path))
        again = run(manager_session(body, registry_path=registry_path))
        assert not first.from_cache and again.from_cache
        assert first.record.metrics
        served = again.record.payloads(result_only=True)
        assert served["metrics"] == first.record.metrics
        assert again.record.resources == first.record.resources
        assert again.record.resources["wall_by_layer_s"]

    def test_registry_never_answers_a_spans_request(self, tmp_path):
        """Rows keep span counts, not spans: asking for them executes."""
        spec = spec_for(spans=True)
        registry_path = str(tmp_path / "runs.sqlite")

        async def body(manager):
            (job,) = manager.submit_many([spec], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        first = run(manager_session(body, registry_path=registry_path))
        again = run(manager_session(body, registry_path=registry_path))
        assert not again.from_cache
        assert again.record.spans
        assert len(again.record.spans) == len(first.record.spans)

    def test_fresh_submit_probes_the_cache_once(self, tmp_path):
        """One dedup probe at admission plus the runner's own lookup;
        admission used to probe twice (3 misses)."""
        cache = ResultCache(tmp_path / "cache")

        async def body(manager):
            (job,) = manager.submit_many([spec_for()], "alice")
            assert cache.misses == 1
            await asyncio.wait_for(job.done.wait(), 60)

        run(manager_session(body, cache=cache))
        assert cache.misses == 2

    def test_done_job_serves_later_submissions(self):
        async def body(manager):
            spec = spec_for()
            (first,) = manager.submit_many([spec], "alice")
            await asyncio.wait_for(first.done.wait(), 60)
            (second,) = manager.submit_many([spec], "bob")
            assert second is first
            return first

        job = run(manager_session(body))
        assert job.clients == {"alice", "bob"}


class TestBackpressure:
    def test_quota_exceeded_rejects_whole_batch(self):
        async def body(manager):
            with pytest.raises(QuotaExceeded) as excinfo:
                manager.submit_many(
                    [spec_for(seed=s) for s in range(3)], "alice"
                )
            assert excinfo.value.retry_after >= 1.0
            assert manager.jobs == {}  # nothing admitted

        run(manager_session(body, quota=2))

    def test_queue_full_rejects(self):
        async def body():
            # workers never started: nothing drains the queue
            manager = JobManager(concurrency=1, max_queue=2, quota=10)
            with pytest.raises(QueueFull) as excinfo:
                manager.submit_many(
                    [spec_for(seed=s) for s in range(3)], "alice"
                )
            assert excinfo.value.retry_after >= 1.0
            assert manager.jobs == {}
            await manager.aclose()

        run(body())

    def test_attaching_counts_against_quota(self):
        async def body(manager):
            spec = spec_for()
            manager.submit_many([spec], "alice")
            # bob attaches to alice's active job: that is bob's quota
            manager.submit_many([spec], "bob")
            with pytest.raises(QuotaExceeded):
                manager.submit_many([spec_for(seed=99)], "bob")
            job = manager.jobs[spec.digest()]
            await asyncio.wait_for(job.done.wait(), 60)

        run(manager_session(body, quota=1))

    def test_distinct_clients_have_distinct_quotas(self):
        async def body(manager):
            jobs_a = manager.submit_many([spec_for(seed=1)], "alice")
            jobs_b = manager.submit_many([spec_for(seed=2)], "bob")
            for job in jobs_a + jobs_b:
                await asyncio.wait_for(job.done.wait(), 60)

        run(manager_session(body, quota=1, concurrency=2))


class TestCancel:
    def test_cancel_queued_job(self):
        async def body(manager):
            # concurrency 1: the second submission waits behind the first
            (first,) = manager.submit_many([spec_for(seed=1)], "alice")
            (queued,) = manager.submit_many([spec_for(seed=2)], "alice")
            manager.cancel(queued.digest)
            assert queued.state == "cancelled"
            assert queued.record.cancelled
            await asyncio.wait_for(first.done.wait(), 60)
            await asyncio.wait_for(queued.done.wait(), 60)
            return first, queued

        first, queued = run(manager_session(body))
        assert first.state == "done"
        assert first.record.ok  # the running job was unaffected

    def test_cancel_terminal_job_is_noop(self):
        async def body(manager):
            (job,) = manager.submit_many([spec_for()], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            manager.cancel(job.digest)
            return job

        job = run(manager_session(body))
        assert job.state == "done"
        assert job.record.ok

    def test_cancel_unknown_digest_raises(self):
        async def body(manager):
            with pytest.raises(KeyError):
                manager.cancel("f" * 64)

        run(manager_session(body))


class TestRecording:
    def test_completed_run_lands_in_registry(self, tmp_path):
        registry_path = str(tmp_path / "runs.sqlite")

        async def body(manager):
            (job,) = manager.submit_many([spec_for()], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        job = run(manager_session(body, registry_path=registry_path))
        assert job.state == "done"
        with RunRegistry(registry_path) as registry:
            rows = registry.runs(digest=job.digest)
            assert len(rows) == 1
            assert rows[0].ok
            assert rows[0].measurement is not None
