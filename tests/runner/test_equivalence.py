"""Serial vs parallel sweeps must be bit-identical, and export carries
the new per-run runner metadata."""

import json

import pytest

from repro.experiments.common import WithdrawalScenario, run_fraction_sweep
from repro.experiments.export import sweep_rows, sweep_to_json
from repro.runner import ProgressSink
from tests.experiments.grids import PINNED, group_values

SWEEP_KWARGS = dict(n=4, sdn_counts=[0, 2, 3], runs=3, mrai=1.0)


def _times(result):
    return [
        (p.sdn_count, [r.seed for r in p.runs], p.times) for p in result.points
    ]


class TestSerialParallelEquality:
    def test_parallel_matches_serial_on_clique(self):
        serial = run_fraction_sweep(WithdrawalScenario, **SWEEP_KWARGS)
        parallel = run_fraction_sweep(
            WithdrawalScenario, workers=2, **SWEEP_KWARGS
        )
        assert _times(parallel) == _times(serial)
        # full per-run measurements, not just the headline stat
        for sp, pp in zip(serial.points, parallel.points):
            for sr, pr in zip(sp.runs, pp.runs):
                assert sr.measurement.convergence_time == (
                    pr.measurement.convergence_time
                )
                assert sr.measurement.updates_tx == pr.measurement.updates_tx
                assert sr.measurement.updates_rx == pr.measurement.updates_rx

    def test_parallel_stats_identical(self):
        serial = run_fraction_sweep(WithdrawalScenario, **SWEEP_KWARGS)
        parallel = run_fraction_sweep(
            WithdrawalScenario, workers=3, **SWEEP_KWARGS
        )
        for sp, pp in zip(serial.points, parallel.points):
            assert sp.stats == pp.stats

    def test_timing_surfaced_on_result(self):
        result = run_fraction_sweep(WithdrawalScenario, **SWEEP_KWARGS)
        assert result.timing is not None
        assert result.timing.jobs == 9
        assert result.timing.failed == 0
        assert result.timing.workers == 1
        assert result.timing.elapsed > 0


class TestExportMetadata:
    def test_rows_carry_runner_metadata(self):
        result = run_fraction_sweep(
            WithdrawalScenario, n=4, sdn_counts=[0, 2], runs=2, mrai=1.0
        )
        rows = sweep_rows(result)
        assert len(rows) == 4
        for row in rows:
            assert row["wall_time"] > 0
            assert row["worker"] == "serial"
            assert row["cached"] is False
            assert row["attempts"] == 1

    def test_json_carries_timing_and_failures(self):
        result = run_fraction_sweep(
            WithdrawalScenario, n=4, sdn_counts=[0, 2], runs=2, mrai=1.0
        )
        doc = json.loads(sweep_to_json(result))
        assert doc["timing"]["jobs"] == 4
        assert doc["timing"]["cached"] == 0
        assert doc["timing"]["workers"] == 1
        assert doc["failures"] == []

    def test_parallel_worker_metadata(self):
        result = run_fraction_sweep(
            WithdrawalScenario,
            n=4,
            sdn_counts=[0, 2],
            runs=2,
            mrai=1.0,
            workers=2,
        )
        workers = {row["worker"] for row in sweep_rows(result)}
        assert all(w.startswith("pid-") for w in workers)


@pytest.mark.parametrize("name", sorted(PINNED))
class TestGroupedSweepEquivalence:
    """The topology, placement, MRAI and recompute-delay sweeps ride the
    same harness as the fraction sweeps, so they owe the same two
    guarantees."""

    def test_two_workers_match_serial(self, name):
        sweep, kwargs, _, _ = PINNED[name]
        assert group_values(name, sweep(workers=2, **kwargs)) == (
            group_values(name, sweep(**kwargs))
        )

    def test_warm_cache_executes_nothing(self, name, tmp_path):
        sweep, kwargs, trials, _ = PINNED[name]
        timings = []

        class KeepTiming(ProgressSink):
            def sweep_finished(self, timing):
                timings.append(timing)

        progress = KeepTiming()
        cold = sweep(cache=tmp_path, progress=progress, **kwargs)
        warm = sweep(cache=tmp_path, progress=progress, **kwargs)
        assert [t.executed for t in timings] == [trials, 0]
        assert group_values(name, warm) == group_values(name, cold)
