"""JobManager: dedup, quotas, backpressure, cancellation, recording."""

import asyncio

import pytest

from repro.config import runspec_from_json
from repro.obs import registry as registry_module
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


def finish_one(spec):
    """A session body: submit ``spec`` as alice, wait for its job."""

    async def body(manager):
        (job,) = manager.submit_many([spec], "alice")
        await asyncio.wait_for(job.done.wait(), 60)
        return job

    return body


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

    def test_stale_registry_row_does_not_answer(self, tmp_path):
        """An ok row (and cache entry) written by another code version
        is history, not an answer: the job executes."""
        spec = spec_for()
        registry_path = str(tmp_path / "runs.sqlite")
        old = ParallelRunner(
            1,
            cache=ResultCache(tmp_path / "cache", code_version="0.0-old"),
            registry=RunRegistry(registry_path, code_version="0.0-old"),
        )
        assert old.run([spec])[0].ok
        old.registry_sink.registry.close()

        job = run(manager_session(
            finish_one(spec),
            cache=ResultCache(tmp_path / "cache"),
            registry_path=registry_path,
        ))
        assert job.state == "done"
        assert not job.from_cache and not job.record.cached

    def test_no_cache_executes_despite_an_ok_registry_row(self, tmp_path):
        """``repro serve --no-cache``: every submission executes."""
        spec = spec_for()
        registry_path = str(tmp_path / "runs.sqlite")
        runner = ParallelRunner(1, registry=registry_path)
        assert runner.run([spec])[0].ok
        runner.registry_sink.registry.close()

        job = run(manager_session(
            finish_one(spec), cache=None, registry_path=registry_path,
        ))
        assert job.state == "done"
        assert not job.from_cache and not job.record.cached
        with RunRegistry(registry_path) as registry:
            assert len(registry.runs(digest=spec.digest())) == 2

    def test_cache_answers_across_a_restart(self, tmp_path):
        """A new manager on the same cache dir and a fresh registry
        serves a spans+metrics run with every payload the first run
        carried."""
        spec = spec_for(spans=True, metrics=True)
        first = run(manager_session(
            finish_one(spec),
            cache=ResultCache(tmp_path / "cache"),
            registry_path=str(tmp_path / "first.sqlite"),
        ))
        again = run(manager_session(
            finish_one(spec),
            cache=ResultCache(tmp_path / "cache"),
            registry_path=str(tmp_path / "second.sqlite"),
        ))
        assert not first.from_cache and again.from_cache
        assert again.state == "done" and again.record.cached
        assert first.record.spans and first.record.metrics
        assert again.record.spans == first.record.spans
        assert again.record.metrics == first.record.metrics
        assert again.record.resources == first.record.resources

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

    def test_git_revision_is_resolved_once(self, tmp_path, monkeypatch):
        """Rows name the revision the process resolved when it started:
        three executed jobs cost one ``git rev-parse``."""
        calls = []

        def counting_rev(cwd=None):
            calls.append(cwd)
            return "abc1234"

        monkeypatch.setattr(registry_module, "current_git_rev", counting_rev)
        registry_path = str(tmp_path / "runs.sqlite")

        async def body(manager):
            jobs = manager.submit_many(
                [spec_for(seed=seed) for seed in (1, 2, 3)], "alice"
            )
            for job in jobs:
                await asyncio.wait_for(job.done.wait(), 60)
            return jobs

        jobs = run(manager_session(body, registry_path=registry_path))
        assert [job.state for job in jobs] == ["done"] * 3
        assert len(calls) == 1
        with RunRegistry(registry_path, git_rev="") as registry:
            rows = registry.runs()
        assert len(rows) == 3
        assert {row.git_rev for row in rows} == {"abc1234"}
