"""ParallelRunner fault tolerance: retries, crashes, CPU budgets,
ordering."""

import functools

import pytest

from repro.runner import JsonProgress, ParallelRunner, ProgressSink
from repro.runner import pool

from .scenarios import (
    CrashScenario,
    FlakyScenario,
    HangScenario,
    RaisingScenario,
    SpinScenario,
)
from .test_jobs import make_spec


@pytest.fixture
def retries(monkeypatch):
    """Set the extra attempts a trial gets (the loop reads
    ``pool.RETRIES`` at run time)."""
    return lambda count: monkeypatch.setattr(pool, "RETRIES", count)


class TestSerialFallback:
    def test_serial_marks_worker(self):
        records = ParallelRunner(1).run([make_spec(), make_spec(seed=8)])
        assert all(r.ok for r in records)
        assert all(r.worker == "serial" for r in records)

    def test_serial_soft_failure_retried_then_reported(self, retries):
        retries(2)
        runner = ParallelRunner(1)
        (record,) = runner.run([make_spec(scenario_factory=RaisingScenario)])
        assert not record.ok
        assert record.attempts == 3
        assert "scenario exploded on purpose" in record.error

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)


class TestOrdering:
    def test_records_align_with_specs(self):
        specs = [make_spec(seed=s) for s in (11, 12, 13, 14, 15)]
        records = ParallelRunner(2).run(specs)
        assert [r.digest for r in records] == [s.digest() for s in specs]
        assert all(r.ok for r in records)


class TestCrashRetry:
    def test_crash_retried_then_failed_without_aborting(self):
        # The crasher is last: a good job still in flight when it dies
        # is charged once and ends ok on its retry.
        specs = [
            make_spec(seed=21),
            make_spec(seed=22),
            make_spec(scenario_factory=CrashScenario, seed=23),
        ]
        runner = ParallelRunner(2)
        records = runner.run(specs)
        assert records[0].ok and records[1].ok
        crash = records[2]
        assert not crash.ok
        assert crash.attempts == 2
        assert "worker process died" in crash.error
        assert runner.last_timing.failed == 1

    def test_crash_first_still_lets_others_finish(self, retries):
        specs = [
            make_spec(scenario_factory=CrashScenario, seed=31),
            make_spec(seed=32),
            make_spec(seed=33),
        ]
        retries(3)
        records = ParallelRunner(2).run(specs)
        assert not records[0].ok
        assert records[1].ok and records[2].ok

    def test_repeat_crasher_takes_its_pool_mate_down_once(self, retries):
        """The last two jobs of a sweep, one a persistent crasher, the
        other slower than the crash: they share the first pool and both
        are charged; after that each runs alone, so the bystander
        finishes on its next attempt instead of dying beside every
        retry of the crasher."""
        specs = [
            make_spec(scenario_factory=CrashScenario, seed=41),
            make_spec(
                scenario_factory=functools.partial(
                    HangScenario, sleep_seconds=0.5
                ),
                seed=42,
            ),
        ]
        retries(3)
        crash, bystander = ParallelRunner(2).run(specs)
        assert not crash.ok and crash.attempts == 4
        assert bystander.ok and bystander.attempts <= 2


class TestSoftFailureRetry:
    def test_flaky_succeeds_on_second_attempt(self, tmp_path):
        factory = functools.partial(
            FlakyScenario, flag_path=str(tmp_path / "flag")
        )
        (record,) = ParallelRunner(2).run(
            [make_spec(scenario_factory=factory)]
        )
        assert record.ok
        assert record.attempts == 2

    def test_exhausted_retries_reported_not_raised(self):
        specs = [
            make_spec(seed=41),
            make_spec(scenario_factory=RaisingScenario, seed=42),
        ]
        records = ParallelRunner(2).run(specs)
        assert records[0].ok
        assert not records[1].ok
        assert records[1].attempts == 2
        assert "scenario exploded on purpose" in records[1].error


class TestTimeout:
    """A runaway trial spends its CPU budget (``TRIAL_CPU_SECONDS``,
    patched to 1 s) and dies of SIGXCPU: the dead-worker path."""

    def test_hung_worker_killed_and_reported(self, monkeypatch):
        monkeypatch.setattr(pool, "TRIAL_CPU_SECONDS", 1)
        spin, bystander = ParallelRunner(2).run(
            [make_spec(scenario_factory=SpinScenario), make_spec(seed=52)]
        )
        assert not spin.ok
        assert "worker process died" in spin.error
        assert spin.attempts == pool.RETRIES + 1
        assert bystander.ok

    def test_fast_jobs_unaffected_by_generous_timeout(self, monkeypatch):
        """The budget is per trial, not per worker: 0.7 s trials stay
        inside a 1 s budget though a worker that runs three of them
        spends more than the 2 s a budget set once would allow."""
        monkeypatch.setattr(pool, "TRIAL_CPU_SECONDS", 1)
        spin = functools.partial(SpinScenario, cpu_seconds=0.7)
        records = ParallelRunner(2).run(
            [make_spec(scenario_factory=spin, seed=s) for s in range(60, 66)]
        )
        assert all(r.ok and r.attempts == 1 for r in records)


class TestProgress:
    def test_callback_sink_sees_every_event(self):
        events = []
        runner = ParallelRunner(
            1, progress=JsonProgress(lambda p: events.append(p["event"]))
        )
        runner.run([make_spec()])
        assert events[0] == "sweep_started"
        assert events[-1] == "sweep_finished"
        assert "job_started" in events and "job_finished" in events

    def test_log_sink_writes_lines(self, capsys):
        import sys

        from repro.runner import LogProgress

        runner = ParallelRunner(1, progress=LogProgress(stream=sys.stderr))
        runner.run([make_spec()])
        err = capsys.readouterr().err
        assert "[runner]" in err and "done:" in err

    def test_resolve_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ParallelRunner(1, progress="loud")

    def test_base_sink_is_quiet(self, capsys):
        ParallelRunner(1, progress=ProgressSink()).run([make_spec()])
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_callback_payload_carries_records(self):
        seen = {}

        def collect(payload):
            seen.setdefault(payload["event"], []).append(payload)

        ParallelRunner(1, progress=JsonProgress(collect)).run([make_spec()])
        (finished,) = seen["job_finished"]
        assert finished["record"]["ok"]
        (done,) = seen["sweep_finished"]
        assert done["timing"]["jobs"] == 1

    def test_log_lines_carry_pace_and_eta(self, capsys):
        import re
        import sys

        from repro.runner import LogProgress

        specs = [make_spec(seed=s) for s in (61, 62)]
        ParallelRunner(1, progress=LogProgress(stream=sys.stderr)).run(specs)
        err = capsys.readouterr().err
        finished = [line for line in err.splitlines() if "] < " in line]
        assert len(finished) == 2
        assert re.search(r"\[1/2, \d+\.\d\d trials/s, eta \d+s\]", finished[0])
        assert "[2/2" in finished[1]

    def test_tee_fans_out_to_every_sink(self):
        from repro.runner import TeeProgress

        seen_a, seen_b = [], []
        tee = TeeProgress(
            JsonProgress(lambda p: seen_a.append(p["event"])),
            None,  # None sinks are dropped, not called
            JsonProgress(lambda p: seen_b.append(p["event"])),
        )
        ParallelRunner(1, progress=tee).run([make_spec()])
        assert seen_a == seen_b
        assert seen_a[0] == "sweep_started"
        assert seen_a[-1] == "sweep_finished"
