"""Cross-run telemetry registry: a durable record of every trial.

Sweeps are fire-and-forget without this module — metrics, provenance
stats and timings flow into one JSON export and vanish.  The
:class:`RunRegistry` is an append-only SQLite store that every
experiment, sweep and benchmark can record into, keyed by the same
:meth:`~repro.runner.jobs.RunSpec.digest` that keys the result cache,
so "the same trial, run last week" is one indexed lookup.

Each run row carries the spec digest and parameters, the git revision
and code version that produced it, the full deterministic measurement,
the per-run metrics snapshot, per-AS convergence instants (when spans
were collected), fault/span summaries, resource accounting and
execution metadata (wall time, worker, cache provenance, attempts).  Sweep rows aggregate the
:class:`~repro.runner.progress.SweepTiming` plus cache hit/miss stats.

Recording is wired through the runner's progress-sink interface:
:class:`RegistrySink` observes ``job_finished``/``sweep_finished``
events, so the serial and parallel execution paths record *identically*
(both emit the same event stream, including cache hits).  Pass
``registry=`` to :class:`~repro.runner.ParallelRunner` or any sweep
function and every trial lands in the store.

On top of the store sit :mod:`repro.obs.trends` (run/sweep diffing and
statistical regression gating) and :mod:`repro.obs.dashboard` (static
HTML).  See ``docs/telemetry.md``.
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import pathlib
import sqlite3
import subprocess
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Union

from ..runner.jobs import RECORD_PAYLOADS, RunRecord, RunSpec, callable_token
from ..runner.progress import ProgressSink, SweepTiming

__all__ = [
    "REGISTRY_ENV",
    "DEFAULT_REGISTRY_PATH",
    "REGISTRY_SCHEMA",
    "RunRegistry",
    "RegistrySink",
    "RunRow",
    "SweepRow",
    "current_git_rev",
    "resolve_registry",
]

#: environment fallback for ``--registry`` on every CLI command.
REGISTRY_ENV = "REPRO_REGISTRY"
#: where the registry lives when neither flag nor env names a path.
DEFAULT_REGISTRY_PATH = ".repro-registry.sqlite"
#: bump when the table layout changes other than by a new payload
#: column.  Files of an older schema gain whichever payload columns
#: they lack, in place (see ``_check_schema``); anything newer than
#: this code understands is rejected loudly.
REGISTRY_SCHEMA = 3

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at  TEXT NOT NULL,
    scenario     TEXT NOT NULL DEFAULT '',
    n_ases       INTEGER,
    label        TEXT NOT NULL DEFAULT '',
    git_rev      TEXT NOT NULL DEFAULT '',
    code_version TEXT NOT NULL DEFAULT '',
    elapsed      REAL,
    jobs         INTEGER,
    cached       INTEGER,
    failed       INTEGER,
    total_job_wall REAL,
    max_job_wall REAL,
    workers      INTEGER,
    cache_hits   INTEGER,
    cache_misses INTEGER,
    extra        TEXT
);
CREATE TABLE IF NOT EXISTS runs (
    run_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    sweep_id     INTEGER,
    recorded_at  TEXT NOT NULL,
    spec_digest  TEXT NOT NULL,
    scenario     TEXT NOT NULL DEFAULT '',
    label        TEXT NOT NULL DEFAULT '',
    n            INTEGER,
    sdn_count    INTEGER,
    fraction     REAL,
    seed         INTEGER,
    git_rev      TEXT NOT NULL DEFAULT '',
    code_version TEXT NOT NULL DEFAULT '',
    ok           INTEGER NOT NULL,
    error        TEXT,
    wall_time    REAL NOT NULL DEFAULT 0.0,
    worker       TEXT NOT NULL DEFAULT '',
    cached       INTEGER NOT NULL DEFAULT 0,
    attempts     INTEGER NOT NULL DEFAULT 1,
    measurement  TEXT,
    instants     TEXT,
    span_count   INTEGER,
    fault_count  INTEGER
);
CREATE INDEX IF NOT EXISTS idx_runs_digest ON runs(spec_digest, run_id);
CREATE INDEX IF NOT EXISTS idx_runs_sweep ON runs(sweep_id);
"""


def current_git_rev(cwd: Union[str, os.PathLike, None] = None) -> str:
    """The short git revision of the working tree, or ``""`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def _utc_now() -> str:
    return _datetime.datetime.now(_datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _scenario_name(spec: RunSpec) -> str:
    return callable_token(spec.scenario_factory).rsplit(":", 1)[-1]


def _loads(text: Optional[str]) -> Any:
    if text is None:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return None


@dataclass(frozen=True)
class RunRow:
    """One recorded trial, with JSON columns parsed back to objects."""

    run_id: int
    sweep_id: Optional[int]
    recorded_at: str
    spec_digest: str
    scenario: str
    label: str
    n: Optional[int]
    sdn_count: Optional[int]
    fraction: Optional[float]
    seed: Optional[int]
    git_rev: str
    code_version: str
    ok: bool
    error: Optional[str]
    wall_time: float
    worker: str
    cached: bool
    attempts: int
    measurement: Optional[Dict[str, Any]]
    metrics: Optional[Dict[str, Any]]
    instants: Optional[Dict[str, float]]
    span_count: Optional[int]
    fault_count: Optional[int]
    resources: Optional[Dict[str, Any]] = None
    anatomy: Optional[Dict[str, Any]] = None


#: the record payloads a run row stores, one JSON TEXT column each:
#: every declared RunRecord payload that RunRow has a field for (spans
#: are summarised into instants/span_count, not stored).
_PAYLOAD_COLUMNS = tuple(
    f.name for f in fields(RunRow) if f.name in RECORD_PAYLOADS
)
_RUN_COLUMNS = tuple(f.name for f in fields(RunRow))
#: RunRow fields stored as JSON text / as 0-1 integers.
_JSON_COLUMNS = ("measurement", "instants") + _PAYLOAD_COLUMNS
_BOOL_COLUMNS = ("ok", "cached")


@dataclass(frozen=True)
class SweepRow:
    """One recorded sweep (timing aggregate + cache provenance)."""

    sweep_id: int
    recorded_at: str
    scenario: str
    n_ases: Optional[int]
    label: str
    git_rev: str
    code_version: str
    elapsed: Optional[float]
    jobs: Optional[int]
    cached: Optional[int]
    failed: Optional[int]
    total_job_wall: Optional[float]
    max_job_wall: Optional[float]
    workers: Optional[int]
    cache_hits: Optional[int]
    cache_misses: Optional[int]
    extra: Optional[Dict[str, Any]]


class RunRegistry:
    """Append-only SQLite store of runs and sweeps.

    ``path`` may be ``":memory:"`` for tests.  ``git_rev``,
    ``code_version`` and ``clock`` are injectable so tests (and the
    golden dashboard) stay deterministic; the defaults capture the
    working tree's revision, ``repro.__version__`` and UTC wall time.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike] = DEFAULT_REGISTRY_PATH,
        *,
        git_rev: Optional[str] = None,
        code_version: Optional[str] = None,
        clock: Optional[Callable[[], str]] = None,
    ) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            parent = pathlib.Path(self.path).parent
            if str(parent) not in ("", "."):
                parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA_SQL)
        self._check_schema()
        if git_rev is None:
            git_rev = current_git_rev()
        self.git_rev = git_rev
        if code_version is None:
            from ..runner.cache import current_code_version

            code_version = current_code_version()
        self.code_version = code_version
        self.clock = clock if clock is not None else _utc_now

    # ------------------------------------------------------------------
    def _check_schema(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='schema'"
        ).fetchone()
        if row is None:
            # Two connections can initialise a fresh file concurrently
            # (the service opens one registry per worker thread plus
            # /api/runs reads on the loop thread); OR IGNORE makes the
            # losing writer a no-op and the re-read settles the value.
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value)"
                " VALUES ('schema', ?)",
                (str(REGISTRY_SCHEMA),),
            )
            self._conn.commit()
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
        version = row["value"]
        if not (version.isdigit() and 1 <= int(version) <= REGISTRY_SCHEMA):
            raise ValueError(
                f"registry {self.path!r} has schema {version}, "
                f"this code expects {REGISTRY_SCHEMA}"
            )
        # Every schema bump so far only added payload columns, so a file
        # of any older schema (or a fresh one, whose CREATE TABLE lists
        # none) migrates in place by gaining the ones it lacks; existing
        # rows read back with the new fields as None.  Columns of
        # deleted payloads (``profile``, ``sample_stacks``) stay in old
        # files, written as NULL and never read.
        present = {
            r["name"] for r in self._conn.execute("PRAGMA table_info(runs)")
        }
        for column in _PAYLOAD_COLUMNS:
            if column not in present:
                try:
                    self._conn.execute(
                        f"ALTER TABLE runs ADD COLUMN {column} TEXT"
                    )
                except sqlite3.OperationalError:
                    pass  # a concurrent opener already added it
        if version != str(REGISTRY_SCHEMA):
            self._conn.execute(
                "UPDATE meta SET value=? WHERE key='schema'",
                (str(REGISTRY_SCHEMA),),
            )
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin_sweep(
        self,
        *,
        scenario: str = "",
        n_ases: Optional[int] = None,
        label: str = "",
        extra: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Open a sweep row; returns its id for per-run attribution."""
        cursor = self._conn.execute(
            "INSERT INTO sweeps (recorded_at, scenario, n_ases, label, "
            "git_rev, code_version, extra) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                self.clock(), scenario, n_ases, label,
                self.git_rev, self.code_version,
                json.dumps(extra) if extra else None,
            ),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def finish_sweep(self, sweep_id: int, timing: SweepTiming) -> None:
        """Attach the final timing aggregate to an open sweep row."""
        self._conn.execute(
            "UPDATE sweeps SET elapsed=?, jobs=?, cached=?, failed=?, "
            "total_job_wall=?, max_job_wall=?, workers=?, "
            "cache_hits=?, cache_misses=? WHERE sweep_id=?",
            (
                timing.elapsed, timing.jobs, timing.cached, timing.failed,
                timing.total_job_wall, timing.max_job_wall, timing.workers,
                timing.cache_hits, timing.cache_misses, sweep_id,
            ),
        )
        self._conn.commit()

    def record(
        self,
        spec: RunSpec,
        record: RunRecord,
        *,
        sweep_id: Optional[int] = None,
    ) -> int:
        """Append one executed (or cached, or failed) trial.

        Derives the queryable columns from the spec, serializes the
        deterministic measurement/metrics payloads, and summarizes
        spans into per-AS convergence instants (via the provenance DAG)
        rather than storing every span.
        """
        instants: Optional[Dict[str, float]] = None
        span_count: Optional[int] = None
        if record.spans is not None:
            span_count = len(record.spans)
            instants = self._instants_from_spans(record)
            # Like ``instants``, anatomy is derivable from the span
            # payload alone — every spans-on trial gets its delay
            # attribution recorded, flag or no flag (on a copy: the
            # caller's record is not ours to fill in).
            from .anatomy import ensure_record_anatomy

            record = replace(record)
            ensure_record_anatomy(record)
        values = {
            "sweep_id": sweep_id,
            "recorded_at": self.clock(),
            "spec_digest": record.digest,
            "scenario": _scenario_name(spec),
            "label": spec.label or spec.display(),
            "n": spec.n,
            "sdn_count": spec.sdn_count,
            "fraction": spec.sdn_count / spec.n if spec.n else None,
            "seed": spec.seed,
            "git_rev": self.git_rev,
            "code_version": self.code_version,
            "ok": int(record.ok),
            "error": record.error,
            "wall_time": record.wall_time,
            "worker": record.worker,
            "cached": int(record.cached),
            "attempts": record.attempts,
            "measurement": record.measurement_dict() or None,
            "instants": instants,
            "span_count": span_count,
            "fault_count": (
                len(spec.faults) if spec.faults is not None else None
            ),
            **{name: getattr(record, name) for name in _PAYLOAD_COLUMNS},
        }
        for name in _JSON_COLUMNS:
            if values[name] is not None:
                values[name] = json.dumps(values[name], sort_keys=True)
        cursor = self._conn.execute(
            f"INSERT INTO runs ({', '.join(values)})"
            f" VALUES ({', '.join('?' * len(values))})",
            list(values.values()),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    @staticmethod
    def _instants_from_spans(record: RunRecord) -> Optional[Dict[str, float]]:
        """Per-AS convergence instants of the measured event's tree."""
        measurement = record.measurement
        if measurement is None or not record.spans:
            return None
        root_id = measurement.extra.get("event_root_span")
        if root_id is None:
            return None
        from .dag import ProvenanceDAG

        dag = ProvenanceDAG.from_dicts(record.spans)
        if int(root_id) not in dag.by_id:
            return None
        return dag.per_node_instants(int(root_id))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @staticmethod
    def _run_row(row: sqlite3.Row) -> RunRow:
        values = {name: row[name] for name in _RUN_COLUMNS}
        for name in _JSON_COLUMNS:
            values[name] = _loads(values[name])
        for name in _BOOL_COLUMNS:
            values[name] = bool(values[name])
        return RunRow(**values)

    def run(self, run_id: int) -> Optional[RunRow]:
        """One run by id, or None."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id=?", (run_id,)
        ).fetchone()
        return self._run_row(row) if row is not None else None

    def runs(
        self,
        *,
        digest: Optional[str] = None,
        scenario: Optional[str] = None,
        sweep_id: Optional[int] = None,
        ok: Optional[bool] = None,
        limit: Optional[int] = None,
        newest_first: bool = False,
    ) -> List[RunRow]:
        """Filtered run rows, in insertion (run_id) order by default."""
        clauses, params = [], []
        if digest is not None:
            clauses.append("spec_digest=?")
            params.append(digest)
        if scenario is not None:
            clauses.append("scenario=?")
            params.append(scenario)
        if sweep_id is not None:
            clauses.append("sweep_id=?")
            params.append(sweep_id)
        if ok is not None:
            clauses.append("ok=?")
            params.append(int(ok))
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += f" ORDER BY run_id {'DESC' if newest_first else 'ASC'}"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [
            self._run_row(r) for r in self._conn.execute(sql, params)
        ]

    def sweep(self, sweep_id: int) -> Optional[SweepRow]:
        """One sweep by id, or None."""
        row = self._conn.execute(
            "SELECT * FROM sweeps WHERE sweep_id=?", (sweep_id,)
        ).fetchone()
        return self._sweep_row(row) if row is not None else None

    @staticmethod
    def _sweep_row(row: sqlite3.Row) -> SweepRow:
        return SweepRow(
            sweep_id=row["sweep_id"],
            recorded_at=row["recorded_at"],
            scenario=row["scenario"],
            n_ases=row["n_ases"],
            label=row["label"],
            git_rev=row["git_rev"],
            code_version=row["code_version"],
            elapsed=row["elapsed"],
            jobs=row["jobs"],
            cached=row["cached"],
            failed=row["failed"],
            total_job_wall=row["total_job_wall"],
            max_job_wall=row["max_job_wall"],
            workers=row["workers"],
            cache_hits=row["cache_hits"],
            cache_misses=row["cache_misses"],
            extra=_loads(row["extra"]),
        )

    def sweeps(
        self,
        *,
        scenario: Optional[str] = None,
        limit: Optional[int] = None,
        newest_first: bool = False,
    ) -> List[SweepRow]:
        """Sweep rows, oldest first by default."""
        sql = "SELECT * FROM sweeps"
        params: List[Any] = []
        if scenario is not None:
            sql += " WHERE scenario=?"
            params.append(scenario)
        sql += f" ORDER BY sweep_id {'DESC' if newest_first else 'ASC'}"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [self._sweep_row(r) for r in self._conn.execute(sql, params)]

    def digests(self) -> List[str]:
        """Every distinct spec digest, in first-seen order."""
        return [
            r["spec_digest"] for r in self._conn.execute(
                "SELECT spec_digest, MIN(run_id) AS first FROM runs "
                "GROUP BY spec_digest ORDER BY first"
            )
        ]

    def counts(self) -> Dict[str, int]:
        """Totals for the dashboard/CLI overview."""
        runs = self._conn.execute("SELECT COUNT(*) c FROM runs").fetchone()["c"]
        ok = self._conn.execute(
            "SELECT COUNT(*) c FROM runs WHERE ok=1"
        ).fetchone()["c"]
        sweeps = self._conn.execute(
            "SELECT COUNT(*) c FROM sweeps"
        ).fetchone()["c"]
        digests = self._conn.execute(
            "SELECT COUNT(DISTINCT spec_digest) c FROM runs"
        ).fetchone()["c"]
        return {
            "runs": runs, "ok": ok, "failed": runs - ok,
            "sweeps": sweeps, "digests": digests,
        }

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def gc_plan(
        self,
        *,
        keep_last: int = 20,
        drop_failed: bool = False,
    ) -> List[int]:
        """The run_ids :meth:`gc` would delete, without deleting them.

        The list is sorted ascending and duplicate-free, so operators
        can size retention (``repro runs gc --dry-run``) before
        committing to it.
        """
        if keep_last < 0:
            raise ValueError(f"keep_last must be >= 0: {keep_last}")
        doomed = set()
        if drop_failed:
            doomed.update(
                r["run_id"]
                for r in self._conn.execute(
                    "SELECT run_id FROM runs WHERE ok=0"
                ).fetchall()
            )
        for digest in self.digests():
            rows = self._conn.execute(
                "SELECT run_id FROM runs WHERE spec_digest=? "
                "ORDER BY run_id DESC", (digest,),
            ).fetchall()
            survivors = [
                r["run_id"] for r in rows if r["run_id"] not in doomed
            ]
            doomed.update(survivors[keep_last:])
        return sorted(doomed)

    def gc(
        self,
        *,
        keep_last: int = 20,
        drop_failed: bool = False,
        dry_run: bool = False,
    ) -> int:
        """Trim history: keep the newest ``keep_last`` runs per digest.

        ``drop_failed`` additionally removes every failed run.  Sweeps
        whose runs are all gone are removed too.  ``dry_run`` deletes
        nothing and just reports what would go (see :meth:`gc_plan`).
        Returns the number of (to-be-)deleted run rows.
        """
        stale = self.gc_plan(keep_last=keep_last, drop_failed=drop_failed)
        if dry_run:
            return len(stale)
        deleted = 0
        if stale:
            marks = ",".join("?" * len(stale))
            deleted = self._conn.execute(
                f"DELETE FROM runs WHERE run_id IN ({marks})", stale
            ).rowcount
        self._conn.execute(
            "DELETE FROM sweeps WHERE sweep_id NOT IN "
            "(SELECT DISTINCT sweep_id FROM runs WHERE sweep_id IS NOT NULL)"
        )
        self._conn.commit()
        return deleted


class RegistrySink(ProgressSink):
    """Progress sink that records every finished trial into a registry.

    The runner funnels serial and parallel execution (and cache hits)
    through the same ``job_finished`` events, so attaching this sink is
    all it takes for both paths to record identically.  The sweep row
    is opened lazily on the first finished job (that is the first
    moment a spec — and thus the scenario name — is visible) and closed
    by ``sweep_finished`` with the final timing aggregate.
    """

    def __init__(self, registry: RunRegistry, *, label: str = "") -> None:
        self.registry = registry
        self.label = label
        self.sweep_id: Optional[int] = None
        #: run_id of every recorded trial, in completion order.
        self.run_ids: List[int] = []

    def _ensure_sweep(self, spec: RunSpec) -> int:
        if self.sweep_id is None:
            self.sweep_id = self.registry.begin_sweep(
                scenario=_scenario_name(spec), n_ases=spec.n,
                label=self.label,
            )
        return self.sweep_id

    def job_finished(self, index: int, spec: RunSpec, record: RunRecord) -> None:
        sweep_id = self._ensure_sweep(spec)
        self.run_ids.append(
            self.registry.record(spec, record, sweep_id=sweep_id)
        )

    def sweep_finished(self, timing: SweepTiming) -> None:
        if self.sweep_id is not None:
            self.registry.finish_sweep(self.sweep_id, timing)
            self.sweep_id = None


def resolve_registry(
    registry: Union[RunRegistry, str, os.PathLike, None]
) -> Optional[RunRegistry]:
    """Map the user-facing ``registry=`` shorthand onto a registry."""
    if registry is None:
        return None
    if isinstance(registry, RunRegistry):
        return registry
    return RunRegistry(registry)
