"""RunRegistry: recording, querying, gc, and the RegistrySink wiring."""

import dataclasses

import pytest

from repro.experiments.common import WithdrawalScenario, run_fraction_sweep
from repro.obs.registry import (
    REGISTRY_SCHEMA,
    RegistrySink,
    RunRegistry,
    resolve_registry,
)
from repro.obs.registry import RunRow
from repro.runner import ParallelRunner, execute_spec
from repro.runner.jobs import RECORD_PAYLOADS

from ..runner.test_jobs import make_spec, sample_payload


def run_columns(path) -> list:
    import sqlite3

    conn = sqlite3.connect(path)
    try:
        return [r[1] for r in conn.execute("PRAGMA table_info(runs)")]
    finally:
        conn.close()


def make_registry(**overrides) -> RunRegistry:
    kwargs = dict(
        path=":memory:",
        git_rev="deadbee",
        code_version="test",
        clock=lambda: "2026-01-01T00:00:00Z",
    )
    kwargs.update(overrides)
    return RunRegistry(**kwargs)


class TestRecordAndQuery:
    def test_record_round_trips_the_measurement(self):
        registry = make_registry()
        spec = make_spec()
        record = execute_spec(spec)
        run_id = registry.record(spec, record)

        row = registry.run(run_id)
        assert row is not None
        assert row.spec_digest == spec.digest()
        assert row.scenario == "WithdrawalScenario"
        assert row.n == spec.n and row.sdn_count == spec.sdn_count
        assert row.seed == spec.seed
        assert row.fraction == pytest.approx(spec.sdn_count / spec.n)
        assert row.ok and row.error is None
        assert row.git_rev == "deadbee"
        assert row.code_version == "test"
        assert row.recorded_at == "2026-01-01T00:00:00Z"
        assert (
            row.measurement["t_converged"]
            == record.measurement.t_converged
        )
        assert row.measurement["updates_tx"] == record.measurement.updates_tx

    @pytest.mark.parametrize(
        "name",
        [f.name for f in dataclasses.fields(RunRow)
         if f.name in RECORD_PAYLOADS],
    )
    def test_every_payload_column_round_trips(self, name):
        registry = make_registry()
        spec = make_spec()
        record = dataclasses.replace(
            execute_spec(spec), **{name: sample_payload(name)}
        )
        row = registry.run(registry.record(spec, record))
        assert getattr(row, name) == sample_payload(name)

    def test_payload_columns_are_the_declared_ones(self):
        # every declared payload is a column, except spans (summarised
        # into instants/span_count rather than stored)
        fields = {f.name for f in dataclasses.fields(RunRow)}
        assert set(RECORD_PAYLOADS) - fields == {"spans"}

    def test_failed_run_recorded_with_error(self):
        from repro.runner import RunRecord

        registry = make_registry()
        spec = make_spec()
        record = RunRecord(digest=spec.digest(), ok=False, error="boom")
        run_id = registry.record(spec, record)
        row = registry.run(run_id)
        assert not row.ok
        assert row.error == "boom"
        assert registry.counts()["failed"] == 1

    def test_metrics_snapshot_round_trips(self):
        registry = make_registry()
        spec = make_spec(metrics=True)
        record = execute_spec(spec)
        row = registry.run(registry.record(spec, record))
        assert row.metrics == record.metrics
        assert "counters" in row.metrics

    def test_spans_become_instants_not_blobs(self):
        registry = make_registry()
        spec = make_spec(spans=True)
        record = execute_spec(spec)
        row = registry.run(registry.record(spec, record))
        assert row.span_count == len(record.spans)
        # the span list itself is summarized, not stored
        assert row.instants, "per-AS convergence instants expected"
        assert all(isinstance(t, float) for t in row.instants.values())

    @pytest.mark.parametrize(
        "anatomy", [False, True], ids=["spans", "anatomy"]
    )
    def test_one_provenance_dag_per_record_at_most(
        self, monkeypatch, anatomy
    ):
        from repro.obs.dag import ProvenanceDAG

        spec = make_spec(n=6, spans=True, anatomy=anatomy)
        record = execute_spec(spec)
        root = record.measurement.extra["event_root_span"]
        oracle = ProvenanceDAG.from_dicts(record.spans)
        instants = oracle.per_node_instants(root)

        built = []
        init = ProvenanceDAG.__init__

        def counting_init(dag, *args, **kwargs):
            built.append(dag)
            init(dag, *args, **kwargs)

        monkeypatch.setattr(ProvenanceDAG, "__init__", counting_init)
        registry = make_registry()
        row = registry.run(registry.record(spec, record))
        # A record that carries anatomy already needs no DAG; any other
        # spans-carrying record needs one, shared by both columns.
        assert len(built) == (0 if anatomy else 1)
        assert row.instants == instants
        assert row.anatomy is not None

    def test_runs_filtering(self):
        registry = make_registry()
        for seed in (7, 8):
            spec = make_spec(seed=seed)
            registry.record(spec, execute_spec(spec))
        digest = make_spec(seed=7).digest()
        assert [r.seed for r in registry.runs(digest=digest)] == [7]
        assert len(registry.runs(scenario="WithdrawalScenario")) == 2
        assert registry.runs(scenario="nope") == []
        newest = registry.runs(newest_first=True, limit=1)
        assert newest[0].seed == 8
        assert len(registry.digests()) == 2

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "reg.sqlite"
        registry = RunRegistry(path)
        registry._conn.execute(
            "UPDATE meta SET value='999' WHERE key='schema'"
        )
        registry._conn.commit()
        registry.close()
        with pytest.raises(ValueError, match="schema 999"):
            RunRegistry(path)
        assert REGISTRY_SCHEMA == 3

    def test_schema_1_migrates_in_place(self, tmp_path):
        """A version-1 file gains the schema-2 columns on open and its
        existing rows read back with the new fields as None."""
        import sqlite3

        path = tmp_path / "v1.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            INSERT INTO meta VALUES ('schema', '1');
            CREATE TABLE sweeps (
                sweep_id INTEGER PRIMARY KEY AUTOINCREMENT,
                recorded_at TEXT NOT NULL, scenario TEXT NOT NULL DEFAULT '',
                n_ases INTEGER, label TEXT NOT NULL DEFAULT '',
                git_rev TEXT NOT NULL DEFAULT '',
                code_version TEXT NOT NULL DEFAULT '', elapsed REAL,
                jobs INTEGER, cached INTEGER, failed INTEGER,
                total_job_wall REAL, max_job_wall REAL, workers INTEGER,
                cache_hits INTEGER, cache_misses INTEGER, extra TEXT);
            CREATE TABLE runs (
                run_id INTEGER PRIMARY KEY AUTOINCREMENT, sweep_id INTEGER,
                recorded_at TEXT NOT NULL, spec_digest TEXT NOT NULL,
                scenario TEXT NOT NULL DEFAULT '',
                label TEXT NOT NULL DEFAULT '', n INTEGER,
                sdn_count INTEGER, fraction REAL, seed INTEGER,
                git_rev TEXT NOT NULL DEFAULT '',
                code_version TEXT NOT NULL DEFAULT '',
                ok INTEGER NOT NULL, error TEXT,
                wall_time REAL NOT NULL DEFAULT 0.0,
                worker TEXT NOT NULL DEFAULT '',
                cached INTEGER NOT NULL DEFAULT 0,
                attempts INTEGER NOT NULL DEFAULT 1, measurement TEXT,
                metrics TEXT, instants TEXT, span_count INTEGER,
                fault_count INTEGER, profile TEXT);
            INSERT INTO runs (recorded_at, spec_digest, ok, wall_time,
                              measurement)
            VALUES ('2026-01-01T00:00:00Z', 'abc', 1, 0.5,
                    '{"t_converged": 1.0}');
            """
        )
        conn.commit()
        conn.close()
        before = run_columns(path)

        with RunRegistry(path) as registry:
            # exactly the missing payload columns were added, in place
            assert run_columns(path) == before + ["resources", "anatomy"]
            row = registry.runs()[0]
            assert row.spec_digest == "abc"
            assert row.resources is None
            assert row.anatomy is None
            # and a current-schema record with resources now round-trips
            spec = make_spec(seed=99)
            record = execute_spec(spec)
            registry.record(spec, record)
            stored = registry.runs(digest=spec.digest())[0]
            assert stored.resources == record.resources
        with RunRegistry(path) as registry:  # reopen: migration is durable
            value = registry._conn.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()["value"]
            assert value == str(REGISTRY_SCHEMA)

    def test_schema_2_migrates_in_place(self, tmp_path):
        """A version-2 file gains only the anatomy column; existing
        rows — including ones that already carry resources — survive
        untouched and read back with ``anatomy`` as None."""
        import sqlite3

        # author a real v2 file by rewinding a current one: drop the
        # anatomy column and stamp the old version
        path = tmp_path / "v2.sqlite"
        with RunRegistry(path) as registry:
            spec = make_spec(seed=41, spans=True)
            registry.record(spec, execute_spec(spec))
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE runs DROP COLUMN anatomy")
        conn.execute("UPDATE meta SET value='2' WHERE key='schema'")
        conn.commit()
        conn.close()
        before = run_columns(path)

        with RunRegistry(path) as registry:
            assert run_columns(path) == before + ["anatomy"]
            row = registry.runs()[0]
            assert row.anatomy is None
            assert row.resources is not None  # v2 data kept
            # new spans-carrying records gain the attribution
            spec = make_spec(seed=42, spans=True)
            registry.record(spec, execute_spec(spec))
            stored = registry.runs(digest=spec.digest())[0]
            assert stored.anatomy is not None
        with RunRegistry(path) as registry:
            value = registry._conn.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()["value"]
            assert value == str(REGISTRY_SCHEMA)

    def test_anatomy_round_trips_and_checks(self):
        from repro.obs.anatomy import check_anatomy

        registry = make_registry()
        spec = make_spec(spans=True)
        record = execute_spec(spec)
        row = registry.run(registry.record(spec, record))
        # derived at record time from the spans, like the instants
        assert row.anatomy is not None
        assert check_anatomy(
            row.anatomy,
            t_converged=record.measurement.t_converged,
        ) == []
        # the stored critical instant is the tracker's answer
        assert row.anatomy["t_converged"] == record.measurement.t_converged

    def test_no_spans_no_anatomy(self):
        registry = make_registry()
        spec = make_spec()
        row = registry.run(registry.record(spec, execute_spec(spec)))
        assert row.anatomy is None

    def test_resolve_registry_shorthand(self, tmp_path):
        assert resolve_registry(None) is None
        registry = make_registry()
        assert resolve_registry(registry) is registry
        opened = resolve_registry(tmp_path / "r.sqlite")
        assert isinstance(opened, RunRegistry)
        opened.close()


class TestDeletedPayloadColumns:
    """Files written while ``profile`` and ``sample_stacks`` were record
    payloads keep those columns; every reader ignores them."""

    @pytest.fixture
    def parent_written(self, tmp_path):
        import json
        import sqlite3

        path = tmp_path / "parent.sqlite"
        with RunRegistry(path) as registry:
            for wall in (0.1, 0.2):
                spec = make_spec(metrics=True)
                record = dataclasses.replace(
                    execute_spec(spec), wall_time=wall
                )
                registry.record(spec, record)
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE runs ADD COLUMN profile TEXT")
        conn.execute("ALTER TABLE runs ADD COLUMN sample_stacks TEXT")
        conn.execute(
            "UPDATE runs SET profile=?, sample_stacks=?",
            (
                json.dumps([{"func": "a.py:1(f)", "ncalls": 2,
                             "tottime": 0.1, "cumtime": 0.5}]),
                json.dumps({"repro.a;repro.b": 7}),
            ),
        )
        conn.commit()
        conn.close()
        return str(path)

    def test_opens_lists_and_diffs(self, parent_written):
        from repro.obs.trends import diff_runs

        with RunRegistry(parent_written) as registry:
            first, second = registry.runs()
            assert first.resources["wall_by_layer_s"]
            assert not hasattr(first, "profile")
            diff = diff_runs(first, second)
            assert diff.ok
            # a new record writes NULL into the old columns
            spec = make_spec(seed=99)
            registry.record(spec, execute_spec(spec))
            assert len(registry.runs()) == 3

    def test_cli_shows_diffs_and_renders(
        self, parent_written, tmp_path, capsys
    ):
        from repro.cli import main

        for argv in (
            ["runs", "list"],
            ["runs", "show", "1"],
            ["runs", "diff", "1", "2"],
            ["runs", "dashboard", "-o", str(tmp_path / "d.html")],
        ):
            assert main(argv + ["--registry", parent_written]) == 0, argv
        out = capsys.readouterr().out
        assert "wall by layer" in out and "outside_events" in out
        html = (tmp_path / "d.html").read_text()
        assert "Ops — wall time by layer (2 run(s))" in html
        assert "hot frames" not in html and "cProfile" not in html


class TestSinkWiring:
    def test_runner_records_every_trial(self):
        registry = make_registry()
        specs = [make_spec(seed=s) for s in (1, 2, 3)]
        ParallelRunner(1, registry=registry).run(specs)

        runs = registry.runs()
        assert [r.seed for r in runs] == [1, 2, 3]
        assert len({r.sweep_id for r in runs}) == 1
        sweep = registry.sweep(runs[0].sweep_id)
        assert sweep.scenario == "WithdrawalScenario"
        assert sweep.jobs == 3 and sweep.failed == 0
        assert sweep.elapsed is not None

    def test_serial_and_parallel_record_identically(self):
        serial, parallel = make_registry(), make_registry()
        specs = [make_spec(seed=s) for s in (11, 12)]
        ParallelRunner(1, registry=serial).run(specs)
        ParallelRunner(2, registry=parallel).run(specs)

        def deterministic(registry):
            # parallel trials record in completion order; sort by digest
            return sorted(
                (r.spec_digest, r.measurement["t_converged"],
                 r.measurement["updates_tx"])
                for r in registry.runs()
            )

        assert deterministic(serial) == deterministic(parallel)

    def test_cache_hits_recorded_with_provenance(self, tmp_path):
        registry = make_registry()
        kwargs = dict(n=4, sdn_counts=[0], runs=2, mrai=1.0)
        run_fraction_sweep(
            WithdrawalScenario, cache=str(tmp_path), **kwargs
        )
        result = run_fraction_sweep(
            WithdrawalScenario, cache=str(tmp_path), registry=registry,
            **kwargs,
        )
        assert result.timing.cached == 2
        runs = registry.runs()
        assert len(runs) == 2 and all(r.cached for r in runs)
        sweep = registry.sweep(runs[0].sweep_id)
        assert sweep.cache_hits == 2 and sweep.cache_misses == 0

    def test_sink_accepts_explicit_instance(self):
        registry = make_registry()
        sink = RegistrySink(registry, label="custom")
        ParallelRunner(1, registry=sink).run([make_spec()])
        assert len(sink.run_ids) == 1
        assert registry.sweeps()[0].label == "custom"


def visible_rows(path) -> tuple:
    """(sweep rows, run rows) a second connection to ``path`` sees."""
    import sqlite3

    conn = sqlite3.connect(path)
    try:
        return tuple(
            conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("sweeps", "runs")
        )
    finally:
        conn.close()


class TestCommits:
    """A sweep row becomes visible with its first run, in one commit."""

    @pytest.mark.parametrize("ok", [True, False])
    def test_sweep_row_commits_with_its_first_run(self, tmp_path, ok):
        from repro.runner import RunRecord

        path = str(tmp_path / "runs.sqlite")
        registry = make_registry(path=path)
        spec = make_spec()
        record = (
            execute_spec(spec) if ok
            else RunRecord(digest=spec.digest(), ok=False, error="boom")
        )
        sweep_id = registry.begin_sweep(scenario="WithdrawalScenario")
        assert visible_rows(path) == (0, 0)
        registry.record(spec, record, sweep_id=sweep_id)
        assert visible_rows(path) == (1, 1)
        registry.close()
        with RunRegistry(path) as reopened:
            (row,) = reopened.runs()
            assert row.sweep_id == sweep_id and row.ok is ok

    def test_one_trial_sweep_commits_twice(self, tmp_path):
        """The sink path: no reader sees the sweep before its run, and
        the run commits with it (then ``finish_sweep`` commits)."""
        path = str(tmp_path / "runs.sqlite")
        registry = make_registry(path=path)
        statements = []
        registry._conn.set_trace_callback(statements.append)
        seen_before_record = []
        record = registry.record

        def checking_record(*args, **kwargs):
            seen_before_record.append(visible_rows(path))
            return record(*args, **kwargs)

        registry.record = checking_record
        ParallelRunner(1, registry=registry).run([make_spec()])
        assert seen_before_record == [(0, 0)]
        assert visible_rows(path) == (1, 1)
        assert statements.count("COMMIT") == 2
        assert registry.sweeps()[0].jobs == 1


class TestGC:
    def _fill(self, registry, seeds):
        for seed in seeds:
            spec = make_spec(seed=seed)
            record = execute_spec(spec)
            sweep_id = registry.begin_sweep(scenario="WithdrawalScenario")
            registry.record(spec, record, sweep_id=sweep_id)

    def test_gc_keeps_newest_per_digest(self):
        registry = make_registry()
        spec = make_spec()
        record = execute_spec(spec)
        ids = [registry.record(spec, record) for _ in range(5)]
        deleted = registry.gc(keep_last=2)
        assert deleted == 3
        survivors = [r.run_id for r in registry.runs(digest=spec.digest())]
        assert survivors == ids[-2:]

    def test_gc_drop_failed_and_orphan_sweeps(self):
        from repro.runner import RunRecord

        registry = make_registry()
        spec = make_spec()
        sweep_id = registry.begin_sweep(scenario="WithdrawalScenario")
        registry.record(
            spec, RunRecord(digest=spec.digest(), ok=False, error="x"),
            sweep_id=sweep_id,
        )
        assert registry.gc(keep_last=10, drop_failed=True) == 1
        assert registry.counts()["runs"] == 0
        assert registry.sweeps() == []

    def test_gc_rejects_negative(self):
        with pytest.raises(ValueError):
            make_registry().gc(keep_last=-1)
