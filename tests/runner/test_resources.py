"""Per-job resource accounting on execute_spec, wall time by layer included."""

import json
import time

import pytest

from repro.runner import ParallelRunner, execute_spec
from repro.runner.cache import ResultCache
from repro.runner.jobs import ResourceAccounting

from .test_jobs import make_spec

RESOURCE_KEYS = {
    "gc_collections",
    "gc_pause_s",
    "cpu_user_s",
    "cpu_sys_s",
    "max_rss_kb",
    "events_processed",
    "events_per_s",
}


class TestResourceAccounting:
    def test_finish_shape_and_monotonicity(self):
        accounting = ResourceAccounting()
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        wall = time.perf_counter() - t0
        out = accounting.finish(wall_time=wall, events_processed=1234)
        assert set(out) == RESOURCE_KEYS
        assert out["cpu_user_s"] >= 0.0
        assert out["cpu_sys_s"] >= 0.0
        assert out["max_rss_kb"] > 0
        assert out["events_processed"] == 1234
        assert out["events_per_s"] == pytest.approx(1234 / wall, rel=0.01)

    def test_gc_callback_removed_after_finish(self):
        import gc

        before = len(gc.callbacks)
        accounting = ResourceAccounting()
        assert len(gc.callbacks) == before + 1
        accounting.finish(wall_time=0.1)
        assert len(gc.callbacks) == before

    def test_no_events_omits_rate(self):
        out = ResourceAccounting().finish(wall_time=0.1)
        assert "events_processed" not in out
        assert "events_per_s" not in out

    def test_outside_events_closes_the_layer_split(self):
        out = ResourceAccounting().finish(
            wall_time=1.0, wall_by_layer={"sdn": 0.25, "bgp": 0.5}
        )
        assert out["wall_by_layer_s"] == {
            "bgp": 0.5, "sdn": 0.25, "outside_events": 0.25,
        }


class TestExecuteSpecResources:
    def test_record_carries_resources(self):
        record = execute_spec(make_spec())
        assert record.ok
        assert record.resources is not None
        assert set(record.resources) == RESOURCE_KEYS
        assert record.resources["events_processed"] > 0
        assert record.resources["events_per_s"] > 0
        # resources must be JSON round-trippable (cache + registry)
        assert json.loads(json.dumps(record.resources)) == record.resources

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_gc_callback_removed_when_the_trial_is_interrupted(
        self, monkeypatch, interrupt
    ):
        import gc

        from repro.runner import jobs

        def interrupted(spec, **_):
            raise interrupt()

        monkeypatch.setattr(jobs, "run_trial_full", interrupted)
        before = list(gc.callbacks)
        with pytest.raises(interrupt):
            execute_spec(make_spec())
        assert gc.callbacks == before

    def test_no_layer_split_without_metrics(self):
        record = execute_spec(make_spec())
        assert "wall_by_layer_s" not in record.resources

    def test_metrics_attach_a_closed_layer_split(self):
        record = execute_spec(make_spec(n=6, sdn_count=3, metrics=True))
        assert record.ok, record.error
        split = record.resources["wall_by_layer_s"]
        assert split["outside_events"] >= 0.0
        assert sum(split.values()) == pytest.approx(
            record.wall_time, rel=1e-9
        )
        # every dispatched event belongs to a repro layer: deliveries
        # to their receivers, timer fires to whoever armed them
        assert {"bgp", "sdn", "controller"} <= set(split)
        assert not {"net", "other"} & set(split)

    def test_resources_do_not_change_measurement(self):
        a = execute_spec(make_spec())
        b = execute_spec(make_spec(metrics=True))
        assert a.measurement_dict() == b.measurement_dict()


class TestCacheRoundTrip:
    def test_resources_and_layer_split_survive_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec(metrics=True)
        record = execute_spec(spec)
        cache.put(spec, record)
        hit = cache.get(spec)
        assert hit is not None and hit.cached
        assert hit.resources == record.resources
        assert hit.resources["wall_by_layer_s"]

    def test_old_cache_entries_without_resources_still_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        record = execute_spec(spec)
        cache.put(spec, record)
        path = cache._path(spec.digest())
        payload = json.loads(path.read_text())
        payload.pop("resources", None)
        path.write_text(json.dumps(payload))
        hit = cache.get(spec)
        assert hit is not None
        assert hit.resources is None

    def test_entries_carrying_deleted_payloads_still_load(self, tmp_path):
        """Entries written while ``profile`` and ``sample_stacks`` were
        record payloads read back as hits; the keys are ignored."""
        cache = ResultCache(tmp_path)
        spec = make_spec()
        record = execute_spec(spec)
        cache.put(spec, record)
        path = cache._path(spec.digest())
        payload = json.loads(path.read_text())
        payload["profile"] = [{"func": "a.py:1(f)", "ncalls": 1}]
        payload["sample_stacks"] = {"a;b": 3}
        path.write_text(json.dumps(payload))
        hit = cache.get(spec)
        assert hit is not None and hit.cached
        assert hit.measurement_dict() == record.measurement_dict()
        assert hit.resources == record.resources
        assert not hasattr(hit, "profile")
        assert not hasattr(hit, "sample_stacks")


class TestRunnerPassThrough:
    def test_parallel_runner_keeps_resources(self):
        specs = [make_spec(seed=s) for s in (1, 2)]
        records = ParallelRunner(2).run(specs)
        assert all(r.resources is not None for r in records)
