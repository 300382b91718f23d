"""Run and sweep diffing."""

import dataclasses

import pytest

from repro.obs.trends import diff_runs, diff_sweeps
from repro.runner import ParallelRunner, execute_spec

from ..runner.test_jobs import make_spec
from .test_registry import make_registry


def record_twice(registry, spec, *, wall_times=(0.1, 0.1)):
    """The same spec executed and recorded once per wall time."""
    record = execute_spec(spec)
    ids = []
    for wall in wall_times:
        pinned = dataclasses.replace(record, wall_time=wall)
        ids.append(registry.record(spec, pinned))
    return ids


class TestDiffRuns:
    def test_same_digest_reruns_diff_clean(self):
        registry = make_registry()
        spec = make_spec(metrics=True, spans=True)
        a = registry.run(registry.record(spec, execute_spec(spec)))
        b = registry.run(registry.record(spec, execute_spec(spec)))
        diff = diff_runs(a, b)
        assert diff.same_digest
        assert diff.ok
        assert diff.deterministic_mismatches == []
        # every deterministic family is actually compared
        names = {f.name for f in diff.fields}
        assert "measurement.t_converged" in names
        assert "span_count" in names
        assert any(n.startswith("instant.") for n in names)
        assert any(n.startswith("metrics.") for n in names)

    def test_deterministic_drift_fails_the_diff(self):
        registry = make_registry()
        spec = make_spec()
        record = execute_spec(spec)
        a = registry.run(registry.record(spec, record))
        tampered = dataclasses.replace(record)
        tampered.measurement = dataclasses.replace(
            record.measurement, updates_tx=record.measurement.updates_tx + 1
        )
        b = registry.run(registry.record(spec, tampered))
        diff = diff_runs(a, b)
        assert not diff.ok
        assert [f.name for f in diff.deterministic_mismatches] == [
            "measurement.updates_tx"
        ]

    def test_wall_time_drift_is_informational_only(self):
        registry = make_registry()
        spec = make_spec()
        a_id, b_id = record_twice(registry, spec, wall_times=(0.1, 10.0))
        diff = diff_runs(registry.run(a_id), registry.run(b_id))
        assert diff.ok, "timing drift alone never fails a diff"
        assert [f.name for f in diff.timing_mismatches] == ["wall_time"]
        assert diff.timing_mismatches[0].rel_error == pytest.approx(0.99)

    def test_anatomy_compared_when_both_rows_carry_it(self):
        registry = make_registry()
        spec = make_spec(spans=True)
        a = registry.run(registry.record(spec, execute_spec(spec)))
        b = registry.run(registry.record(spec, execute_spec(spec)))
        diff = diff_runs(a, b)
        assert diff.ok
        names = {f.name for f in diff.fields}
        assert "anatomy.mrai_wait" in names
        assert "anatomy.critical_node" in names

    def test_anatomy_drift_fails_the_diff(self):
        registry = make_registry()
        spec = make_spec(spans=True)
        a = registry.run(registry.record(spec, execute_spec(spec)))
        b = registry.run(registry.record(spec, execute_spec(spec)))
        tampered = dict(b.anatomy)
        tampered["categories"] = dict(
            tampered["categories"], mrai_wait=123.456
        )
        b = dataclasses.replace(b, anatomy=tampered)
        diff = diff_runs(a, b)
        assert not diff.ok
        drifted = {f.name for f in diff.deterministic_mismatches}
        assert "anatomy.mrai_wait" in drifted

    def test_one_sided_anatomy_is_tolerated(self):
        # digest-neutral flag means a digest's history can mix
        # anatomy-on and anatomy-off rows; that is not drift
        registry = make_registry()
        spec = make_spec(spans=True)
        a = registry.run(registry.record(spec, execute_spec(spec)))
        b = dataclasses.replace(a, anatomy=None)
        diff = diff_runs(a, b)
        assert diff.ok
        one_sided = [f for f in diff.fields if f.name == "anatomy"]
        assert len(one_sided) == 1 and one_sided[0].ok

    def test_layer_split_rows_are_timing_and_one_sided_is_tolerated(self):
        registry = make_registry()
        spec = make_spec(metrics=True)
        a = registry.run(registry.record(spec, execute_spec(spec)))
        split = dict(a.resources["wall_by_layer_s"])
        split["bgp"] *= 10  # far outside the band
        split["extra"] = 1.0  # a layer only b has
        b = dataclasses.replace(
            a, resources=dict(a.resources, wall_by_layer_s=split)
        )
        diff = diff_runs(a, b)
        assert diff.ok, "the layer split is informational"
        rows = {
            f.name: f for f in diff.fields
            if f.name.startswith("resources.wall_by_layer_s.")
        }
        assert {f.kind for f in rows.values()} == {"timing"}
        assert not rows["resources.wall_by_layer_s.bgp"].ok
        extra = rows["resources.wall_by_layer_s.extra"]
        assert extra.ok and extra.a is None and extra.b == 1.0
        assert set(rows) == {
            f"resources.wall_by_layer_s.{layer}" for layer in split
        }

    def test_different_digests_not_ok(self):
        registry = make_registry()
        rows = []
        for seed in (7, 8):
            spec = make_spec(seed=seed)
            rows.append(registry.run(registry.record(spec, execute_spec(spec))))
        assert not diff_runs(*rows).ok


class TestDiffSweeps:
    def test_identical_sweeps_pair_and_pass(self):
        registry = make_registry()
        specs = [make_spec(seed=s) for s in (1, 2, 3)]
        for _ in range(2):
            ParallelRunner(1, registry=registry).run(specs)
        a, b = [s.sweep_id for s in registry.sweeps()]
        diff = diff_sweeps(registry, a, b)
        assert len(diff.pairs) == 3
        assert diff.ok
        assert diff.only_in_a == [] and diff.only_in_b == []

    def test_grid_mismatch_reported(self):
        registry = make_registry()
        ParallelRunner(1, registry=registry).run(
            [make_spec(seed=1), make_spec(seed=2)]
        )
        ParallelRunner(1, registry=registry).run(
            [make_spec(seed=2), make_spec(seed=3)]
        )
        a, b = [s.sweep_id for s in registry.sweeps()]
        diff = diff_sweeps(registry, a, b)
        assert not diff.ok
        assert diff.only_in_a == [make_spec(seed=1).digest()]
        assert diff.only_in_b == [make_spec(seed=3).digest()]
        assert len(diff.pairs) == 1 and diff.pairs[0].ok

    def test_repeated_spec_pairs_kth_with_kth(self):
        registry = make_registry()
        spec = make_spec()
        for _ in range(2):
            ParallelRunner(1, registry=registry).run([spec, spec])
        a, b = [s.sweep_id for s in registry.sweeps()]
        diff = diff_sweeps(registry, a, b)
        ids_a = [r.run_id for r in registry.runs(sweep_id=a)]
        ids_b = [r.run_id for r in registry.runs(sweep_id=b)]
        assert [(p.run_a, p.run_b) for p in diff.pairs] == list(
            zip(ids_a, ids_b)
        )
        assert len(diff.pairs) == 2
        assert diff.ok

    def test_repeated_spec_surplus_fails_the_diff(self):
        registry = make_registry()
        spec = make_spec()
        ParallelRunner(1, registry=registry).run([spec, spec])
        ParallelRunner(1, registry=registry).run([spec])
        a, b = [s.sweep_id for s in registry.sweeps()]
        assert len(registry.runs(sweep_id=a)) == 2
        diff = diff_sweeps(registry, a, b)
        first_a = registry.runs(sweep_id=a)[0].run_id
        assert [p.run_a for p in diff.pairs] == [first_a]
        assert diff.only_in_a == [spec.digest()] and diff.only_in_b == []
        assert not diff.ok
        reverse = diff_sweeps(registry, b, a)
        assert reverse.only_in_a == [] and reverse.only_in_b == [spec.digest()]
        assert not reverse.ok
