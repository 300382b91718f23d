"""Result cache: hit/miss, invalidation, atomicity of the contract."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.common import run_fraction_sweep, WithdrawalScenario
from repro.faults import FaultSchedule
from repro.runner import ResultCache, RunRecord, execute_spec
from repro.runner.jobs import RECORD_PAYLOADS

from .test_jobs import make_spec, sample_payload


class TestHitMiss:
    def test_empty_cache_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(make_spec()) is None
        assert len(cache) == 0

    def test_put_then_get_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        record = execute_spec(spec)
        cache.put(spec, record)
        assert len(cache) == 1

        hit = cache.get(spec)
        assert hit is not None
        assert hit.cached is True
        assert hit.ok is True
        assert (
            hit.measurement.convergence_time
            == record.measurement.convergence_time
        )
        assert hit.measurement.updates_tx == record.measurement.updates_tx
        assert hit.worker == record.worker

    def test_metrics_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec(metrics=True, trace_level="off")
        record = execute_spec(spec)
        assert record.metrics is not None
        cache.put(spec, record)

        hit = cache.get(spec)
        assert hit.metrics == record.metrics

    def test_metrics_absent_when_not_requested(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        record = execute_spec(spec)
        assert record.metrics is None
        cache.put(spec, record)
        assert cache.get(spec).metrics is None

    def test_metrics_flag_changes_digest(self):
        assert make_spec().digest() != make_spec(metrics=True).digest()
        assert (
            make_spec().digest() != make_spec(trace_level="off").digest()
        )

    def test_spans_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec(spans=True)
        record = execute_spec(spec)
        assert record.spans, "traced run must capture spans"
        cache.put(spec, record)

        hit = cache.get(spec)
        assert hit.spans == record.spans
        # JSON round-trip keeps the provenance DAG reconstructable
        root_ids = [s["span_id"] for s in hit.spans if s["parent_id"] is None]
        assert root_ids

    def test_spans_absent_when_not_requested(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        record = execute_spec(spec)
        assert record.spans is None
        cache.put(spec, record)
        assert cache.get(spec).spans is None

    @pytest.mark.parametrize("name", RECORD_PAYLOADS)
    def test_every_declared_payload_round_trips(self, tmp_path, name):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        record = dataclasses.replace(
            execute_spec(spec), **{name: sample_payload(name)}
        )
        cache.put(spec, record)
        assert getattr(cache.get(spec), name) == sample_payload(name)
        # a payload of the wrong JSON type reads back as absent
        path = tmp_path / f"{spec.digest()}.json"
        entry = json.loads(path.read_text())
        entry[name] = "not the declared type"
        path.write_text(json.dumps(entry))
        assert getattr(cache.get(spec), name) is None

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, execute_spec(spec))
        assert cache.get(make_spec(seed=99)) is None

    def test_failed_records_never_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, RunRecord(digest=spec.digest(), ok=False, error="x"))
        assert len(cache) == 0
        assert cache.get(spec) is None


#: every kind of stale entry, as an edit of a good entry's JSON.
STALE_EDITS = {
    "corrupt": lambda entry: "{not json",
    "not-a-dict": lambda entry: json.dumps([entry]),
    "wrong-schema": lambda entry: json.dumps({**entry, "schema": 0}),
    "other-version": lambda entry: json.dumps(
        {**entry, "code_version": "0.0-old"}
    ),
    "measurement-not-a-dict": lambda entry: json.dumps(
        {**entry, "measurement": [entry["measurement"]]}
    ),
}


class TestInvalidation:
    def test_code_version_mismatch_is_a_miss(self, tmp_path):
        spec = make_spec()
        writer = ResultCache(tmp_path, code_version="1.0.0")
        writer.put(spec, execute_spec(spec))
        assert writer.get(spec) is not None

        reader = ResultCache(tmp_path, code_version="2.0.0")
        assert reader.get(spec) is None
        # and the new version overwrites in place
        reader.put(spec, execute_spec(spec))
        assert reader.get(spec) is not None
        assert writer.get(spec) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, execute_spec(spec))
        (tmp_path / f"{spec.digest()}.json").write_text("{not json")
        assert cache.get(spec) is None

    @pytest.mark.parametrize("kind", [None, *STALE_EDITS])
    def test_get_misses_exactly_when_prune_removes(self, tmp_path, kind):
        """One validity rule: an entry ``get`` cannot serve is the
        entry ``prune`` deletes, and a servable one survives."""
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, execute_spec(spec))
        path = tmp_path / f"{spec.digest()}.json"
        if kind is not None:
            path.write_text(STALE_EDITS[kind](json.loads(path.read_text())))
        missed = cache.get(spec) is None
        assert missed == (kind is not None)
        assert cache.prune() == int(missed)
        assert path.exists() == (not missed)


def _schedule_built_forward() -> FaultSchedule:
    return (
        FaultSchedule(fault_seed=7)
        .link_down(1, 2, at=1.0)
        .router_crash(3, at=2.0, down_for=4.0)
    )


def _schedule_from_shuffled_spec() -> FaultSchedule:
    # same schedule expressed as a dict spec with every key order
    # scrambled relative to the builder's
    return FaultSchedule.from_spec(
        {
            "events": [
                {"b": 2, "kind": "link_down", "a": 1, "at": 1.0},
                {"down_for": 4.0, "at": 2.0, "asn": 3, "kind": "router_crash"},
            ],
            "fault_seed": 7,
        }
    )


class TestFaultScheduleDigests:
    """RunSpecs embedding fault schedules must hash deterministically
    regardless of how (and in which process) the schedule was built."""

    def test_faults_change_the_digest(self):
        plain = make_spec()
        faulted = make_spec(faults=_schedule_built_forward().canonical())
        assert plain.digest() != faulted.digest()

    def test_fault_free_digest_unchanged_by_the_faults_field(self):
        # faults=None must not perturb digests of pre-existing specs
        # (warm caches stay valid across the feature's introduction)
        assert "faults" not in make_spec().describe()

    def test_dict_ordering_does_not_change_digest(self):
        built = make_spec(faults=_schedule_built_forward().canonical())
        shuffled = make_spec(faults=_schedule_from_shuffled_spec().canonical())
        assert built.digest() == shuffled.digest()

    def test_different_schedules_different_digests(self):
        a = make_spec(faults=_schedule_built_forward().canonical())
        other = FaultSchedule(fault_seed=8).link_down(1, 2, at=1.0)
        b = make_spec(faults=other.canonical())
        assert a.digest() != b.digest()

    def test_digest_stable_across_processes(self):
        """A fresh interpreter (different PYTHONHASHSEED, so different
        set/dict iteration hashing) must produce the same digest."""
        spec = make_spec(faults=_schedule_built_forward().canonical())
        code = (
            "from tests.runner.test_cache import _schedule_built_forward\n"
            "from tests.runner.test_jobs import make_spec\n"
            "spec = make_spec(faults=_schedule_built_forward().canonical())\n"
            "print(spec.digest())\n"
        )
        root = pathlib.Path(__file__).parents[2]
        for hashseed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = f"{root / 'src'}{os.pathsep}{root}"
            env["PYTHONHASHSEED"] = hashseed
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env=env, cwd=str(root),
            )
            assert out.stdout.strip() == spec.digest()


class TestStatsAndPrune:
    def test_empty_cache_stats(self, tmp_path):
        stats = ResultCache(tmp_path / "absent").stats()
        assert stats.entries == 0 and stats.total_bytes == 0
        assert stats.hits == 0 and stats.misses == 0
        assert stats.hit_rate == 0.0

    def test_stats_count_entries_and_lookups(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.get(spec)  # miss
        cache.put(spec, execute_spec(spec))
        cache.get(spec)  # hit
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_prune_removes_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, execute_spec(spec))
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "wrong-shape.json").write_text('["a", "list"]')
        assert cache.prune() == 2
        assert cache.get(spec) is not None

    def test_prune_removes_other_code_versions(self, tmp_path):
        spec = make_spec()
        old = ResultCache(tmp_path, code_version="1.0.0")
        old.put(spec, execute_spec(spec))
        new = ResultCache(tmp_path, code_version="2.0.0")
        new.put(make_spec(seed=9), execute_spec(make_spec(seed=9)))
        assert new.prune() == 1
        assert old.get(spec) is None
        assert new.get(make_spec(seed=9)) is not None

    def test_prune_leaves_foreign_files_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "README.txt").write_text("not a cache entry")
        (tmp_path / ".tmp-half.json").write_text("{")
        assert cache.prune() == 0
        assert (tmp_path / "README.txt").exists()
        assert (tmp_path / ".tmp-half.json").exists()

    def test_anatomy_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec(spans=True, anatomy=True)
        record = execute_spec(spec)
        assert record.anatomy
        cache.put(spec, record)
        hit = cache.get(spec)
        assert hit.anatomy == record.anatomy

    def test_sweep_timing_carries_cache_traffic(self, tmp_path):
        kwargs = dict(n=4, sdn_counts=[0], runs=2, mrai=1.0)
        cold = run_fraction_sweep(
            WithdrawalScenario, cache=str(tmp_path), **kwargs
        )
        assert cold.timing.cache_hits == 0
        assert cold.timing.cache_misses == 2
        assert cold.timing.cache_entries == 2
        assert cold.timing.cache_bytes > 0

        warm = run_fraction_sweep(
            WithdrawalScenario, cache=str(tmp_path), **kwargs
        )
        assert warm.timing.cache_hits == 2
        assert warm.timing.cache_misses == 0

    def test_sweep_timing_zero_without_cache(self):
        result = run_fraction_sweep(
            WithdrawalScenario, n=4, sdn_counts=[0], runs=1, mrai=1.0,
        )
        assert result.timing.cache_hits == 0
        assert result.timing.cache_misses == 0
        assert result.timing.cache_entries == 0


class TestSweepIntegration:
    def test_warm_cache_executes_zero_trials(self, tmp_path):
        kwargs = dict(n=4, sdn_counts=[0, 2], runs=2, mrai=1.0)
        cold = run_fraction_sweep(
            WithdrawalScenario, cache=str(tmp_path), **kwargs
        )
        assert cold.timing.executed == 4
        assert cold.timing.cached == 0

        warm = run_fraction_sweep(
            WithdrawalScenario, cache=str(tmp_path), **kwargs
        )
        assert warm.timing.executed == 0
        assert warm.timing.cached == 4
        assert all(r.cached for p in warm.points for r in p.runs)
        assert [p.times for p in warm.points] == [p.times for p in cold.points]

    def test_partial_cache_fills_the_gap(self, tmp_path):
        run_fraction_sweep(
            WithdrawalScenario, n=4, sdn_counts=[0], runs=2, mrai=1.0,
            cache=str(tmp_path),
        )
        widened = run_fraction_sweep(
            WithdrawalScenario, n=4, sdn_counts=[0, 2], runs=2, mrai=1.0,
            cache=str(tmp_path),
        )
        assert widened.timing.cached == 2
        assert widened.timing.executed == 2
