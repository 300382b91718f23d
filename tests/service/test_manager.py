"""JobManager: dedup, quotas, backpressure, cancellation, recording,
and the worker processes the trials run in."""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.config import runspec_from_json
from repro.obs import registry as registry_module
from repro.obs.registry import RunRegistry
from repro.runner import ParallelRunner, ResultCache, pool
from repro.runner import jobs as jobs_module
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


def patch_trial(monkeypatch, before):
    """Run ``before(spec)`` ahead of every trial.  Patched before the
    first dispatch, so the forked workers inherit it."""
    real = jobs_module.run_trial_full

    def trial(spec, info=None):
        before(spec)
        return real(spec, info=info)

    monkeypatch.setattr(jobs_module, "run_trial_full", trial)


def kill_own_worker():
    os.kill(os.getpid(), signal.SIGKILL)


def spin():
    """Burn CPU until something ends the process."""
    while True:
        pass


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


async def started(job):
    """Wait until ``job``'s trial has been handed to a worker."""
    while not any(e["event"] == "job_started" for e in job.events):
        await asyncio.sleep(0.01)


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
        """One dedup probe at admission and none at execution (the
        admission used to probe twice, and the runner once more)."""
        cache = ResultCache(tmp_path / "cache")

        async def body(manager):
            (job,) = manager.submit_many([spec_for()], "alice")
            assert cache.misses == 1
            await asyncio.wait_for(job.done.wait(), 60)

        run(manager_session(body, cache=cache))
        assert cache.misses == 1

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


class TestAnatomy:
    """``anatomy`` is digest-neutral: an anatomy-on submit of a spec
    first run spans-only is the same job or cache entry, and is answered
    with the anatomy a runner sweep of the anatomy-on spec gives."""

    SPANS = spec_for(spans=True)
    ANATOMY = spec_for(spans=True, anatomy=True)

    @classmethod
    def runner_anatomy(cls):
        (record,) = ParallelRunner(1).run([cls.ANATOMY])
        assert record.ok and record.anatomy is not None
        return json.dumps(record.anatomy, sort_keys=True)

    def test_done_job_derives_it(self):
        async def body(manager):
            (job,) = manager.submit_many([self.SPANS], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            assert job.record.anatomy is None
            (again,) = manager.submit_many([self.ANATOMY], "bob")
            assert again is job
            return job

        job = run(manager_session(body))
        assert json.dumps(job.record.anatomy, sort_keys=True) == (
            self.runner_anatomy()
        )

    def test_running_job_derives_it_when_its_trial_lands(self):
        async def body(manager):
            (job,) = manager.submit_many([self.SPANS], "alice")
            await started(job)
            assert job.state == "running" and job.record is None
            (again,) = manager.submit_many([self.ANATOMY], "bob")
            assert again is job
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        job = run(manager_session(body))
        assert job.state == "done"
        assert json.dumps(job.record.anatomy, sort_keys=True) == (
            self.runner_anatomy()
        )

    def test_queued_job_runs_with_it(self):
        async def body(manager):
            # concurrency 1: the spans-only job waits behind the first
            manager.submit_many([spec_for(seed=1)], "alice")
            (job,) = manager.submit_many([self.SPANS], "alice")
            assert job.state == "queued"
            (again,) = manager.submit_many([self.ANATOMY], "bob")
            assert again is job
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        job = run(manager_session(body))
        assert json.dumps(job.record.anatomy, sort_keys=True) == (
            self.runner_anatomy()
        )

    def test_cache_hit_after_a_restart_derives_it(self, tmp_path):
        first = run(manager_session(
            finish_one(self.SPANS), cache=ResultCache(tmp_path / "cache"),
        ))
        again = run(manager_session(
            finish_one(self.ANATOMY), cache=ResultCache(tmp_path / "cache"),
        ))
        assert first.record.anatomy is None
        assert again.from_cache
        assert json.dumps(again.record.anatomy, sort_keys=True) == (
            self.runner_anatomy()
        )


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
        assert queued.events == []  # the queued one never started

    def test_resubmit_of_a_cancelled_job_runs_it(self):
        """A cancelled job is dead: the same spec submitted again gets a
        fresh job that runs once and ends done, and the cancelled job's
        leftover queue entry does not run it a second time."""

        async def body(manager):
            (first,) = manager.submit_many([spec_for(seed=1)], "alice")
            (queued,) = manager.submit_many([spec_for(seed=2)], "alice")
            manager.cancel(queued.digest)
            await asyncio.wait_for(first.done.wait(), 60)
            while manager._queue.qsize():  # the pool drains the queue
                await asyncio.sleep(0.01)
            (again,) = manager.submit_many([spec_for(seed=2)], "bob")
            await asyncio.wait_for(again.done.wait(), 60)
            while manager._queue.qsize():
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            return queued, again, manager.jobs[again.digest]

        queued, again, kept = run(manager_session(body))
        assert queued.state == "cancelled"
        assert again is not queued and again is kept
        assert again.state == "done" and again.record.ok
        assert again.clients == {"bob"}
        starts = [e for e in again.events if e["event"] == "job_started"]
        assert len(starts) == 1

    def test_resubmit_before_the_queue_drains_runs_once(self):
        """Resubmitted while the cancelled job's queue entry still
        waits: the fresh job's trial starts once, not once per entry."""

        async def body(manager):
            (first,) = manager.submit_many([spec_for(seed=1)], "alice")
            (queued,) = manager.submit_many([spec_for(seed=2)], "alice")
            manager.cancel(queued.digest)
            # no await since the cancel: its queue entry still waits
            (again,) = manager.submit_many([spec_for(seed=2)], "alice")
            await asyncio.wait_for(again.done.wait(), 60)
            while manager._queue.qsize():
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            return first, again

        first, again = run(manager_session(body))
        assert first.state == again.state == "done"
        starts = [e for e in again.events if e["event"] == "job_started"]
        assert len(starts) == 1

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

    def test_failed_job_row_is_committed(self, tmp_path):
        """A failed trial still commits its run row, together with the
        sweep row it opened: a fresh connection reads both."""
        registry_path = str(tmp_path / "runs.sqlite")

        async def body(manager):
            spec = spec_for(seed=3)
            object.__setattr__(spec, "sdn_members", (999,))
            (job,) = manager.submit_many([spec], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            return job

        job = run(manager_session(body, registry_path=registry_path))
        assert job.state == "failed"
        with RunRegistry(registry_path) as registry:
            (row,) = registry.runs(digest=job.digest)
            assert not row.ok and row.error
            (sweep,) = registry.sweeps()
            assert sweep.sweep_id == row.sweep_id
            assert sweep.failed == 1

    def test_sweep_finished_frame_leaves_cache_totals_unread(self, tmp_path):
        """A job never lists the cache directory, so its
        ``sweep_finished`` frame says None (JSON null), not a false 0."""
        job = run(
            manager_session(
                finish_one(spec_for()), cache=ResultCache(tmp_path)
            )
        )
        (finished,) = [
            e for e in job.events if e["event"] == "sweep_finished"
        ]
        timing = finished["timing"]
        assert timing["cache_misses"] == 1
        assert timing["cache_entries"] is None
        assert timing["cache_bytes"] is None


#: row fields that read the wall clock or name the process that ran
#: the trial, not the simulation.
WALL_CLOCK_FIELDS = {"recorded_at", "wall_time", "worker"}
WALL_CLOCK_RESOURCES = {
    "cpu_user_s", "cpu_sys_s", "max_rss_kb", "events_per_s",
    "gc_collections", "gc_pause_s", "wall_by_layer_s",
}
WALL_CLOCK_SWEEP_FIELDS = {
    "recorded_at", "elapsed", "total_job_wall", "max_job_wall",
}


def comparable(registry):
    """(runs, sweeps) of ``registry`` without the wall-clock fields."""
    runs = []
    for row in registry.runs():
        fields = {
            k: v for k, v in vars(row).items() if k not in WALL_CLOCK_FIELDS
        }
        fields["resources"] = {
            k: v for k, v in (row.resources or {}).items()
            if k not in WALL_CLOCK_RESOURCES
        }
        runs.append(fields)
    sweeps = [
        {k: v for k, v in vars(row).items()
         if k not in WALL_CLOCK_SWEEP_FIELDS}
        for row in registry.sweeps()
    ]
    return runs, sweeps


class TestRegistryConnection:
    """One registry connection for the manager's whole life, opened by
    the first executed job and closed at shutdown, both on the loop."""

    @pytest.fixture
    def connections(self, monkeypatch):
        """Each opened RunRegistry: its opening and closing thread."""
        import threading

        opened = []
        init, close = RunRegistry.__init__, RunRegistry.close

        def tracking_init(registry, *args, **kwargs):
            init(registry, *args, **kwargs)
            registry.threads = [threading.get_ident()]
            opened.append(registry)

        def tracking_close(registry):
            if hasattr(registry, "threads"):
                registry.threads.append(threading.get_ident())
            close(registry)

        monkeypatch.setattr(RunRegistry, "__init__", tracking_init)
        monkeypatch.setattr(RunRegistry, "close", tracking_close)
        return opened

    def jobs(self, registry_path, count=5, **kwargs):
        async def body(manager):
            jobs = manager.submit_many(
                [spec_for(seed=seed) for seed in range(1, count + 1)],
                "alice",
            )
            for job in jobs:
                await asyncio.wait_for(job.done.wait(), 60)
            return jobs

        jobs = run(manager_session(
            body, registry_path=registry_path, quota=count, **kwargs
        ))
        assert [job.state for job in jobs] == ["done"] * count
        return jobs

    def test_five_jobs_share_one_connection(self, tmp_path, connections):
        self.jobs(str(tmp_path / "runs.sqlite"))
        (registry,) = connections
        opener, closer = registry.threads
        assert opener == closer  # closed at shutdown, on its own thread
        with RunRegistry(str(tmp_path / "runs.sqlite")) as reader:
            assert len(reader.runs()) == 5 and len(reader.sweeps()) == 5

    def test_one_connection_for_every_worker(self, tmp_path, connections):
        """Four workers, eight jobs: every commit lands through the one
        connection."""
        self.jobs(str(tmp_path / "runs.sqlite"), count=8, concurrency=4)
        (registry,) = connections
        opener, closer = registry.threads
        assert opener == closer
        with RunRegistry(str(tmp_path / "runs.sqlite")) as reader:
            runs = reader.runs()
            assert len({row.run_id for row in runs}) == 8
            assert len({row.spec_digest for row in runs}) == 8
            assert len(reader.sweeps()) == 8

    def test_no_executed_job_opens_no_connection(self, tmp_path, connections):
        run(manager_session(
            lambda manager: asyncio.sleep(0),
            registry_path=str(tmp_path / "runs.sqlite"),
        ))
        assert connections == []

    def test_rows_equal_per_job_connections(self, tmp_path):
        """The kept connection writes what a connection per job wrote,
        up to the wall clock."""
        from repro.obs.registry import RegistrySink

        kept = str(tmp_path / "kept.sqlite")
        jobs = self.jobs(kept)
        per_job = str(tmp_path / "per-job.sqlite")
        for job in jobs:
            with RunRegistry(per_job) as registry:
                ParallelRunner(
                    1, registry=RegistrySink(registry, label="service")
                ).run([job.spec])
        with RunRegistry(kept) as a, RunRegistry(per_job) as b:
            assert comparable(a) == comparable(b)
            assert len(a.runs()) == 5

    def test_a_record_that_raises_leaves_no_open_write(
        self, tmp_path, monkeypatch
    ):
        """A job whose registry write fails rolls back its uncommitted
        sweep row: other writers are not locked out, and the next job
        records normally."""
        import sqlite3

        path = str(tmp_path / "runs.sqlite")
        record = RunRegistry.record
        failures = []

        def failing_once(registry, *args, **kwargs):
            if not failures:
                failures.append(1)
                raise RuntimeError("disk trouble")
            return record(registry, *args, **kwargs)

        monkeypatch.setattr(RunRegistry, "record", failing_once)

        async def body(manager):
            (first,) = manager.submit_many([spec_for(seed=1)], "alice")
            await asyncio.wait_for(first.done.wait(), 60)
            other = sqlite3.connect(path, timeout=0)
            try:
                other.execute("BEGIN IMMEDIATE")  # the write lock is free
                other.rollback()
            finally:
                other.close()
            (second,) = manager.submit_many([spec_for(seed=2)], "alice")
            await asyncio.wait_for(second.done.wait(), 60)
            return first, second

        first, second = run(manager_session(body, registry_path=path))
        assert first.state == "failed" and "disk trouble" in first.record.error
        assert second.state == "done"
        with RunRegistry(path) as registry:
            (row,) = registry.runs()
            (sweep,) = registry.sweeps()
        assert row.spec_digest == second.digest
        assert row.sweep_id == sweep.sweep_id and sweep.jobs == 1


class TestWorkerProcesses:
    """Trials run in worker processes: a worker that dies costs the
    jobs in flight one attempt, and shutdown leaves no worker behind."""

    def test_trial_that_kills_its_worker_every_time_fails(
        self, monkeypatch
    ):
        patch_trial(monkeypatch, lambda spec: kill_own_worker())
        job = run(manager_session(finish_one(spec_for())))
        assert job.state == "failed"
        assert job.record.attempts == 2
        assert "worker process died" in job.record.error
        assert [e["attempt"] for e in job.events
                if e["event"] == "job_started"] == [1, 2]

    def test_innocent_job_in_flight_beside_a_killer_ends_done(
        self, monkeypatch
    ):
        """At concurrency 2 the killer dies while the innocent job is
        mid-trial: both are charged an attempt and retried, each with
        nothing beside it, and only the killer fails.  The executor
        SIGTERMs the broken pool's other worker; that signal ends the
        worker and never reaches the server's own SIGTERM handler."""
        killer, innocent = spec_for(seed=1), spec_for(seed=2)
        in_pool = {False: [], True: []}  # trials in the pool, by retrying
        server_sigterms = []

        def before(spec):
            if spec.seed == killer.seed:
                time.sleep(0.3)
                kill_own_worker()
            time.sleep(1.0)

        patch_trial(monkeypatch, before)

        async def body(manager):
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, lambda: server_sigterms.append(1)
            )
            jobs = manager.submit_many([killer, innocent], "alice")
            while not all(job.done.is_set() for job in jobs):
                retrying = any(
                    event.get("attempt") == 2
                    for job in jobs for event in job.events
                )
                in_pool[retrying].append(manager._trials.running)
                await asyncio.sleep(0.01)
            return jobs

        bad, good = run(manager_session(body, concurrency=2))
        assert bad.state == "failed" and bad.record.attempts == 2
        assert "worker process died" in bad.record.error
        assert good.state == "done" and good.record.ok
        assert good.record.attempts == 2
        assert max(in_pool[False]) == 2  # the first attempts overlapped
        assert max(in_pool[True]) == 1  # each retry ran alone
        assert server_sigterms == []

    def test_job_cancelled_while_it_waits_for_its_retry_runs_no_trial(
        self, tmp_path, monkeypatch
    ):
        """After the break both jobs retry alone, one after the other.
        The one cancelled while it waits for its turn ends cancelled
        with the one attempt the break charged it, and its trial is not
        started again."""
        killer, innocent = spec_for(seed=1), spec_for(seed=2)
        trials = tmp_path / "trials"

        def before(spec):
            with open(trials, "a") as log:
                log.write(f"{spec.seed}\n")
            first = trials.read_text().split().count("1") == 1
            if spec.seed == killer.seed and first:
                time.sleep(0.3)
                kill_own_worker()
            time.sleep(1.0)

        patch_trial(monkeypatch, before)

        def attempts(job):
            return sum(e["event"] == "job_started" for e in job.events)

        async def body(manager):
            jobs = manager.submit_many([killer, innocent], "alice")
            while not any(attempts(job) == 2 for job in jobs):
                await asyncio.sleep(0.01)
            (waiting,) = [job for job in jobs if attempts(job) == 1]
            manager.cancel(waiting.digest)
            for job in jobs:
                await asyncio.wait_for(job.done.wait(), 60)
            return jobs, waiting

        jobs, waiting = run(manager_session(body, concurrency=2))
        (retried,) = [job for job in jobs if job is not waiting]
        assert waiting.state == "cancelled"
        assert waiting.record.attempts == 1 and attempts(waiting) == 1
        assert trials.read_text().split().count(str(waiting.spec.seed)) == 1
        assert retried.state == "done" and retried.record.attempts == 2

    def test_trial_past_its_cpu_budget_fails_and_frees_its_worker(
        self, monkeypatch
    ):
        """At concurrency 1, a trial that spins past its CPU budget
        (patched to 1 s) dies of SIGXCPU on every attempt and fails; the
        next job runs in the replaced pool and ends done."""
        monkeypatch.setattr(pool, "TRIAL_CPU_SECONDS", 1)
        patch_trial(monkeypatch, lambda spec: spec.seed == 1 and spin())

        async def body(manager):
            jobs = manager.submit_many(
                [spec_for(seed=1), spec_for(seed=2)], "alice"
            )
            for job in jobs:
                await asyncio.wait_for(job.done.wait(), 60)
            return jobs

        spinner, after = run(manager_session(body))
        assert spinner.state == "failed"
        assert "worker process died" in spinner.record.error
        assert spinner.record.attempts == pool.RETRIES + 1
        assert after.state == "done" and after.record.ok

    def test_aclose_leaves_no_worker_alive(self, monkeypatch):
        """Shutdown kills every worker, one mid-trial too, and does not
        wait for the trial."""
        patch_trial(
            monkeypatch,
            lambda spec: spec.seed == 2 and time.sleep(60),
        )

        async def session():
            manager = JobManager(concurrency=2)
            manager.start()
            try:
                done, blocked = manager.submit_many(
                    [spec_for(seed=1), spec_for(seed=2)], "alice"
                )
                await asyncio.wait_for(done.done.wait(), 60)
                await started(blocked)
                pids = list(manager._trials.executor._processes)
            finally:
                start = time.monotonic()
                await manager.aclose()
            return pids, time.monotonic() - start

        pids, teardown_s = run(session())
        assert len(pids) == 2
        assert teardown_s < 5.0
        assert not [pid for pid in pids if alive(pid)]


class TestFullDisk:
    def test_served_job_ends_done_when_the_cache_write_fails(
        self, tmp_path, monkeypatch
    ):
        from tests.runner.test_cache import full_disk

        full_disk(monkeypatch)
        cache = ResultCache(tmp_path / "cache")
        job = run(manager_session(finish_one(spec_for()), cache=cache))
        assert job.state == "done" and job.record.ok
        assert cache.put_errors == 1
        assert not list((tmp_path / "cache").iterdir())
        assert cache.get(job.spec) is None


def history_scan_evict(order, jobs, limit):
    """The eviction rule as a full history scan: drop the oldest
    terminal, unwatched jobs until at most ``limit`` remain."""
    excess = len(jobs) - limit
    for digest in [d for d in order if not jobs[d].active()]:
        if excess <= 0:
            break
        if jobs[digest].subscribers:
            continue
        del jobs[digest]
        order.remove(digest)
        excess -= 1


class TestEviction:
    def test_evicts_the_same_jobs_in_the_same_order_as_a_full_scan(
        self, monkeypatch
    ):
        import random

        from repro.service import manager as manager_module
        from repro.service.manager import Job

        monkeypatch.setattr(manager_module, "HISTORY_LIMIT", 5)
        manager = JobManager()
        order, shadow = [], {}
        rng = random.Random(7)
        evicted, expected = [], []
        for seed in range(200):
            # finish or watch some of the jobs already remembered
            for job in list(manager.jobs.values()):
                roll = rng.random()
                if job.active() and roll < 0.3:
                    job.state = rng.choice(["done", "failed", "cancelled"])
                elif roll < 0.05:
                    job.subscribers.add(object())
                elif roll < 0.15:
                    job.subscribers.clear()
            job = Job(
                digest=f"{seed:064x}", spec=spec_for(seed=seed),
                state=rng.choice(["queued", "running", "done", "done"]),
            )
            before = [*manager.jobs, job.digest]
            manager._remember(job)
            evicted += [d for d in before if d not in manager.jobs]

            shadow[job.digest] = job
            order.append(job.digest)
            kept = list(order)
            history_scan_evict(order, shadow, 5)
            expected += [d for d in kept if d not in shadow]
            assert list(manager.jobs) == order
        assert evicted == expected
        assert len(evicted) > 100

    def test_walk_stops_at_the_jobs_it_drops(self, monkeypatch):
        """Past the limit, one submit visits one old job, not the
        whole history."""
        from repro.service import manager as manager_module
        from repro.service.manager import Job

        monkeypatch.setattr(manager_module, "HISTORY_LIMIT", 100)
        manager = JobManager()
        for seed in range(300):
            manager._remember(
                Job(digest=f"{seed:064x}", spec=spec_for(), state="done")
            )
        visits = []
        active = Job.active

        def counting_active(job):
            visits.append(job.digest)
            return active(job)

        monkeypatch.setattr(Job, "active", counting_active)
        manager._remember(
            Job(digest="f" * 64, spec=spec_for(), state="done")
        )
        assert visits == [f"{200:064x}"]
        assert len(manager.jobs) == 100
