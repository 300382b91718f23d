"""Runner-pool cancellation by spec digest.

Cancellation takes effect at scheduling boundaries: queued jobs never
start, mid-flight results are discarded, and — critically — cache hits
and already-finalized records are untouched, and a cancelled record is
never written to the cache.
"""

import threading

from repro.experiments.common import WithdrawalScenario
from repro.runner import ParallelRunner, RunSpec
from repro.topology.builders import clique


def make_spec(**overrides):
    base = dict(
        scenario_factory=WithdrawalScenario,
        topology_factory=clique,
        n=4,
        sdn_count=2,
        seed=7,
        mrai=1.0,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestCancelSerial:
    def test_cancel_before_run_skips_execution(self):
        spec = make_spec()
        runner = ParallelRunner(1)
        runner.cancel(spec.digest())
        record = runner.run([spec])[0]
        assert not record.ok
        assert record.cancelled
        assert "cancelled" in record.error

    def test_cancelled_record_never_cached(self, tmp_path):
        spec = make_spec()
        runner = ParallelRunner(1, cache=str(tmp_path))
        runner.cancel(spec.digest())
        runner.run([spec])
        assert runner.cache.get(spec) is None
        # a fresh runner over the same cache executes normally
        clean = ParallelRunner(1, cache=str(tmp_path))
        record = clean.run([spec])[0]
        assert record.ok and not record.cached

    def test_cache_hits_ignore_cancellation(self, tmp_path):
        spec = make_spec()
        warm = ParallelRunner(1, cache=str(tmp_path))
        baseline = warm.run([spec])[0]
        assert baseline.ok

        runner = ParallelRunner(1, cache=str(tmp_path))
        runner.cancel(spec.digest())
        record = runner.run([spec])[0]
        assert record.ok
        assert record.cached
        assert not record.cancelled
        assert (
            record.measurement.convergence_time
            == baseline.measurement.convergence_time
        )

    def test_only_targeted_digest_cancelled(self):
        doomed, spared = make_spec(seed=1), make_spec(seed=2)
        runner = ParallelRunner(1)
        runner.cancel(doomed.digest())
        records = runner.run([doomed, spared])
        assert records[0].cancelled and not records[0].ok
        assert records[1].ok and not records[1].cancelled

    def test_completed_records_unaffected_by_late_cancel(self):
        spec = make_spec()
        runner = ParallelRunner(1)
        record = runner.run([spec])[0]
        assert record.ok
        runner.cancel(spec.digest())  # after the fact: a no-op
        assert record.ok and not record.cancelled

    def test_cancel_mid_sweep_from_another_thread(self):
        """Cancel later jobs from a second thread while the first runs
        (the service's running-job cancellation path, minus the HTTP)."""
        from repro.runner.progress import JsonProgress

        first = make_spec(seed=1)
        rest = [make_spec(seed=s) for s in (2, 3)]
        runner = ParallelRunner(1)
        done = threading.Event()

        def cancel_rest(payload):
            if payload["event"] == "job_started" and not done.is_set():
                done.set()
                thread = threading.Thread(
                    target=lambda: [
                        runner.cancel(spec.digest()) for spec in rest
                    ]
                )
                thread.start()
                thread.join()

        runner.progress = JsonProgress(cancel_rest)
        records = runner.run([first] + rest)
        assert records[0].ok
        assert all(r.cancelled for r in records[1:])


class TestCancelParallel:
    def test_queued_jobs_cancelled_in_pool_mode(self):
        specs = [make_spec(seed=s) for s in range(1, 4)]
        runner = ParallelRunner(2, timeout=60.0)
        for spec in specs[1:]:
            runner.cancel(spec.digest())
        records = runner.run(specs)
        assert records[0].ok
        assert all(r.cancelled and not r.ok for r in records[1:])

    def test_all_cancelled_drains_cleanly(self):
        specs = [make_spec(seed=s) for s in range(1, 4)]
        runner = ParallelRunner(2)
        for spec in specs:
            runner.cancel(spec.digest())
        records = runner.run(specs)
        assert all(r.cancelled for r in records)
        assert runner.last_timing.failed == len(specs)

    def test_inflight_cancel_discards_completed_result(self):
        """Cancelling while a job executes in the pool discards its
        eventual (successful) result at the completion boundary."""
        from repro.runner.progress import JsonProgress

        spec = make_spec(seed=1)
        runner = ParallelRunner(2, timeout=60.0)

        def on_event(payload):
            if payload["event"] == "job_started":
                runner.cancel(spec.digest())

        runner.progress = JsonProgress(on_event)
        record = runner.run([spec])[0]
        assert not record.ok
        assert record.cancelled
