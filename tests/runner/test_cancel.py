"""Cancellation by spec digest, as the job manager applies it to the
trials it runs in worker processes.

Queued jobs never start, a running job's result is discarded when its
trial lands, cache hits and finished jobs are untouched, and a
cancelled record is never written to the cache.
"""

import asyncio
import time

from repro.runner import ParallelRunner, ResultCache
from tests.service.test_manager import (
    manager_session,
    patch_trial,
    run,
    spec_for,
    started,
)


def settle(jobs):
    async def wait():
        for job in jobs:
            await asyncio.wait_for(job.done.wait(), 60)

    return wait()


def cancel_running(spec, **kwargs):
    """Submit ``spec``, cancel it once its trial is in a worker, and
    return the job when the trial lands."""

    async def body(manager):
        (job,) = manager.submit_many([spec], "alice")
        await started(job)
        manager.cancel(job.digest)
        assert job.state == "running"  # until the trial lands
        await settle([job])
        return job

    return run(manager_session(body, **kwargs))


class TestCancelSerial:
    def test_cancel_before_run_skips_execution(self):
        async def body(manager):
            (job,) = manager.submit_many([spec_for()], "alice")
            manager.cancel(job.digest)  # no worker has taken it yet
            await settle([job])
            return job

        job = run(manager_session(body))
        assert job.state == "cancelled"
        assert not job.record.ok
        assert job.record.cancelled
        assert "cancelled" in job.record.error
        assert job.record.attempts == 0
        assert job.events == []

    def test_cancelled_record_never_cached(self, tmp_path, monkeypatch):
        patch_trial(monkeypatch, lambda spec: time.sleep(0.5))
        spec = spec_for()
        cache = ResultCache(tmp_path / "cache")

        job = cancel_running(spec, cache=cache)
        assert job.state == "cancelled"
        assert cache.get(spec) is None
        assert not list((tmp_path / "cache").glob("*.json"))

        # a fresh manager over the same cache executes normally
        async def body(manager):
            (again,) = manager.submit_many([spec], "alice")
            await settle([again])
            return again

        again = run(manager_session(body, cache=ResultCache(tmp_path / "cache")))
        assert again.state == "done"
        assert again.record.ok and not again.from_cache

    def test_cache_hits_ignore_cancellation(self, tmp_path):
        spec = spec_for()
        cache = ResultCache(tmp_path / "cache")
        baseline = ParallelRunner(1, cache=cache).run([spec])[0]
        assert baseline.ok

        async def body(manager):
            (job,) = manager.submit_many([spec], "alice")
            manager.cancel(job.digest)
            return job

        job = run(manager_session(body, cache=cache))
        assert job.state == "done"
        assert job.from_cache
        assert job.record.ok and not job.record.cancelled
        assert (
            job.record.measurement.convergence_time
            == baseline.measurement.convergence_time
        )

    def test_only_targeted_digest_cancelled(self):
        doomed, spared = spec_for(seed=1), spec_for(seed=2)

        async def body(manager):
            jobs = manager.submit_many([doomed, spared], "alice")
            manager.cancel(jobs[0].digest)
            await settle(jobs)
            return jobs

        first, second = run(manager_session(body))
        assert first.state == "cancelled"
        assert first.record.cancelled and not first.record.ok
        assert second.state == "done"
        assert second.record.ok and not second.record.cancelled

    def test_completed_records_unaffected_by_late_cancel(self, tmp_path):
        spec = spec_for()
        cache = ResultCache(tmp_path / "cache")

        async def body(manager):
            (job,) = manager.submit_many([spec], "alice")
            await settle([job])
            record = job.record
            manager.cancel(job.digest)  # after the fact: a no-op
            return job, record

        job, record = run(manager_session(body, cache=cache))
        assert job.state == "done"
        assert job.record is record
        assert record.ok and not record.cancelled
        assert cache.get(spec).ok


class TestCancelParallel:
    def test_queued_jobs_cancelled_in_pool_mode(self):
        specs = [spec_for(seed=s) for s in range(1, 4)]

        async def body(manager):
            jobs = manager.submit_many(specs, "alice")
            for job in jobs[1:]:
                manager.cancel(job.digest)
            await settle(jobs)
            return jobs

        jobs = run(manager_session(body, concurrency=2))
        assert jobs[0].state == "done" and jobs[0].record.ok
        for job in jobs[1:]:
            assert job.state == "cancelled"
            assert job.record.cancelled and not job.record.ok
            assert job.events == []  # never started

    def test_inflight_cancel_discards_completed_result(
        self, tmp_path, monkeypatch
    ):
        """Cancelling while a job executes in a worker discards its
        eventual (successful) result when the trial lands."""
        patch_trial(monkeypatch, lambda spec: time.sleep(0.5))
        spec = spec_for()
        cache = ResultCache(tmp_path / "cache")

        job = cancel_running(spec, concurrency=2, cache=cache)
        assert job.state == "cancelled"
        assert job.record.cancelled and not job.record.ok
        assert job.record.attempts == 1
        (finished,) = [e for e in job.events if e["event"] == "job_finished"]
        assert finished["record"]["cancelled"] is True
        assert cache.get(spec) is None
