"""The job → event loop path behind the service's SSE streams.

A served job's trial runs in a worker process while the loop emits its
progress events.  Three properties matter: the job's event history is
the *same ordered stream* the runner's synchronous sink sees, a slow
subscriber never blocks the job (its frames drop), and a service torn
down mid-trial neither waits for the trial nor hears from it again.
"""

import asyncio
import io
import os
import time

from repro.config import runspec_from_json
from repro.runner import JsonProgress, LogProgress, ParallelRunner
from repro.runner import jobs as jobs_module
from repro.service import manager as manager_module
from repro.service.manager import JobManager

BASE = {"scenario": "withdrawal", "n": 5, "sdn_count": 2, "mrai": 1.0}


def specs_for(seeds):
    return [runspec_from_json({**BASE, "seed": s}) for s in seeds]


def event_keys(payloads):
    """(event, digest-or-None) sequence — the order-sensitive shape."""
    return [(p["event"], p.get("digest")) for p in payloads]


def serve_jobs(specs):
    """Submit every spec to a one-worker manager and wait for each job;
    return the jobs in submission order."""

    async def session():
        manager = JobManager(concurrency=1)
        manager.start()
        try:
            jobs = manager.submit_many(specs, "alice")
            for job in jobs:
                await asyncio.wait_for(job.done.wait(), 60)
            return jobs
        finally:
            await manager.aclose()

    return asyncio.run(session())


def deterministic(payloads):
    """Event payloads with the wall-clock noise and the executing
    process stripped, so two runs of the same sweep compare equal."""
    out = []
    for payload in payloads:
        clean = dict(payload)
        if "record" in clean:
            record = dict(clean["record"])
            record.pop("wall_time", None)
            record.pop("worker", None)
            clean["record"] = record
        if "timing" in clean:
            timing = dict(clean["timing"])
            for noisy in (
                "elapsed", "total_job_wall", "max_job_wall",
                "cache_entries", "cache_bytes",
            ):
                timing.pop(noisy, None)
            clean["timing"] = timing
        out.append(clean)
    return out


class TestOrdering:
    def test_bridge_emits_same_ordered_events_as_sync_sinks(self):
        specs = specs_for([1, 2, 3])
        jobs = serve_jobs(specs)
        assert all(job.record.ok for job in jobs)
        for spec, job in zip(specs, jobs):
            # Reference: the synchronous JSON sink, in-thread.
            sync_events = []
            ParallelRunner(1, progress=JsonProgress(sync_events.append)).run(
                [spec]
            )
            assert event_keys(job.events) == event_keys(sync_events)
            # identical payloads too, once wall-clock noise is stripped
            assert deterministic(job.events) == deterministic(sync_events)

    def test_bridge_matches_log_progress_line_order(self):
        """The SSE history narrates a job in the same order as the
        human-facing log (header, one start/finish pair, done line)."""
        specs = specs_for([4, 5])
        jobs = serve_jobs(specs)
        for spec, job in zip(specs, jobs):
            stream = io.StringIO()
            ParallelRunner(1, progress=LogProgress(stream)).run([spec])
            log_lines = [
                line for line in stream.getvalue().splitlines()
                if line.startswith("[runner]")
            ]
            names = [p["event"] for p in job.events]
            assert len(log_lines) == len(names)
            assert names[0] == "sweep_started"
            for name, line in zip(names[1:-1], log_lines[1:-1]):
                marker = (
                    "[runner] >" if name == "job_started" else "[runner] <"
                )
                assert line.startswith(marker), (name, line)
            assert names[-1] == "sweep_finished"
            assert log_lines[-1].startswith("[runner] done:")

    def test_per_job_event_pairing(self):
        specs = specs_for([1, 2])
        jobs = serve_jobs(specs)
        for job in jobs:
            starts = [
                p["digest"] for p in job.events if p["event"] == "job_started"
            ]
            finishes = [
                p for p in job.events if p["event"] == "job_finished"
            ]
            assert starts == [job.digest]
            assert [p["digest"] for p in finishes] == [job.digest]
            assert finishes[0]["record"]["ok"] is True


class TestNonBlocking:
    def test_full_queue_never_stalls_the_sweep(self, monkeypatch):
        """A subscriber that never drains (a 2-frame buffer) must not
        block the job: it completes, and the frames past the buffer are
        counted as dropped."""
        monkeypatch.setattr(manager_module, "SUBSCRIBER_BUFFER", 2)
        (spec,) = specs_for([1])

        async def session():
            manager = JobManager(concurrency=1)
            manager.start()
            try:
                (job,) = manager.submit_many([spec], "alice")
                queue = manager.subscribe(job.digest)  # never read
                await asyncio.wait_for(job.done.wait(), 60)
                return job, queue, manager.telemetry()
            finally:
                await manager.aclose()

        job, queue, telemetry = asyncio.run(session())
        assert job.state == "done" and job.record.ok
        assert len(job.events) == 4  # the history is not the subscriber's
        assert queue.qsize() == 2
        # 4 runner events + the done frame, 2 of them buffered
        assert job.dropped_frames == 3
        assert telemetry["dropped_frames"] == 3

    def test_closed_loop_never_stalls_the_sweep(self, monkeypatch):
        """A service torn down mid-trial does not wait for the trial:
        its worker is killed, and the job's history ends where the
        teardown found it."""
        # Patched before the first dispatch: the forked worker has it.
        monkeypatch.setattr(
            jobs_module, "run_trial_full",
            lambda spec, info=None: time.sleep(60),
        )
        (spec,) = specs_for([1])

        async def session():
            manager = JobManager(concurrency=1)
            manager.start()
            try:
                (job,) = manager.submit_many([spec], "alice")
                while len(job.events) < 2:  # sweep_started, job_started
                    await asyncio.sleep(0.01)
                pids = list(manager._trials.executor._processes)
            finally:
                start = time.monotonic()
                await manager.aclose()
            return job, pids, time.monotonic() - start

        job, pids, teardown_s = asyncio.run(session())
        assert teardown_s < 5.0
        assert job.state == "running"
        assert [p["event"] for p in job.events] == [
            "sweep_started", "job_started",
        ]
        for pid in pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            raise AssertionError(f"worker {pid} outlived the service")
