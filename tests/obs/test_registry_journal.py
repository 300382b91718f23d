"""RunRegistry on disk: WAL journaling, concurrent writers, crashes.

The registry journals in WAL mode with ``synchronous=NORMAL``: writers
in several processes append to one file, a process crash loses no
committed row, and a file written in the old rollback-journal mode
opens and reads unchanged.
"""

import os
import pathlib
import signal
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.obs import registry as registry_module
from repro.obs.registry import RunRegistry
from repro.runner import execute_spec

from ..runner.test_jobs import make_spec

ROOT = pathlib.Path(__file__).parents[2]

#: appends ``count`` runs tagged ``tag`` (as git_rev), once a line on
#: stdin says go; prints each run_id as it commits.
WRITER = """
import sys
from repro.obs.registry import RunRegistry
from repro.runner import RunRecord
from tests.runner.test_jobs import make_spec

path, count, tag = sys.argv[1], int(sys.argv[2]), sys.argv[3]
print("ready", flush=True)
sys.stdin.readline()
registry = RunRegistry(path, git_rev=tag, code_version="test")
for seed in range(count):
    spec = make_spec(seed=seed)
    run_id = registry.record(spec, RunRecord(digest=spec.digest(), ok=True))
    print(run_id, flush=True)
if tag == "crash":
    sys.stdin.readline()  # hold the connection open until killed
registry.close()
"""


def writer(path, count, tag) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
    process = subprocess.Popen(
        [sys.executable, "-c", WRITER, str(path), str(count), tag],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
    )
    assert process.stdout.readline() == "ready\n"
    return process


def pragma(path, name) -> str:
    conn = sqlite3.connect(path)
    try:
        return str(conn.execute(f"PRAGMA {name}").fetchone()[0])
    finally:
        conn.close()


class TestJournal:
    def test_opens_in_wal_with_normal_sync(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunRegistry(path) as registry:
            assert registry._conn.execute(
                "PRAGMA synchronous"
            ).fetchone()[0] == 1  # NORMAL
            spec = make_spec()
            registry.record(spec, execute_spec(spec))
            assert (tmp_path / "runs.sqlite-wal").exists()
        assert pragma(path, "journal_mode") == "wal"

    def test_rollback_journal_file_opens_and_lists_the_same_rows(
        self, tmp_path, monkeypatch, capsys
    ):
        """A file written before WAL (rollback journal) reads back the
        same rows and the same ``runs list``, then stays in WAL."""
        from repro.cli import main

        path = str(tmp_path / "old.sqlite")
        with monkeypatch.context() as patch:
            patch.setattr(registry_module, "_journal_to_wal", lambda conn: None)
            with RunRegistry(path, git_rev="0ld0ld0") as old:
                for seed in (1, 2, 3):
                    spec = make_spec(seed=seed)
                    old.record(spec, execute_spec(spec))
                written = old.runs()
            assert pragma(path, "journal_mode") == "delete"
            assert main(["runs", "list", "--registry", path]) == 0
        listed = capsys.readouterr().out

        with RunRegistry(path) as registry:
            assert registry.runs() == written
        assert pragma(path, "journal_mode") == "wal"
        assert main(["runs", "list", "--registry", path]) == 0
        assert capsys.readouterr().out == listed


class TestConcurrentWriters:
    def test_open_waits_out_a_writer_mid_transaction(self, tmp_path):
        """SQLite refuses the switch to WAL at once, without its busy
        handler, while another connection holds the write lock (as when
        a second process is creating the same fresh registry): the open
        waits for the lock instead of raising ``database is locked``."""
        path = str(tmp_path / "busy.sqlite")
        other = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        other.execute("CREATE TABLE unrelated (x)")
        other.execute("BEGIN IMMEDIATE")
        timer = threading.Timer(0.2, other.execute, ("COMMIT",))
        timer.start()
        try:
            with RunRegistry(path) as registry:
                assert registry.runs() == []
        finally:
            timer.join(10)
            other.close()
        assert pragma(path, "journal_mode") == "wal"

    def test_two_processes_append_to_one_fresh_registry(self, tmp_path):
        """Both start on a file neither has created yet and interleave
        their commits: every row lands, under a distinct run_id."""
        path = tmp_path / "shared.sqlite"
        count = 40
        writers = [writer(path, count, tag) for tag in ("first", "second")]
        for process in writers:
            process.stdin.write("go\n")
            process.stdin.flush()
        printed = {}
        for tag, process in zip(("first", "second"), writers):
            out, err = process.communicate(timeout=60)
            assert process.returncode == 0, err
            assert "locked" not in err
            printed[tag] = [int(line) for line in out.split()]

        with RunRegistry(path) as registry:
            rows = registry.runs()
        assert len(rows) == 2 * count
        assert len({row.run_id for row in rows}) == 2 * count
        for tag, run_ids in printed.items():
            mine = [row for row in rows if row.git_rev == tag]
            assert [row.run_id for row in mine] == run_ids
            assert [row.seed for row in mine] == list(range(count))
        assert pragma(path, "integrity_check") == "ok"


class TestCrash:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGKILL"), reason="needs SIGKILL"
    )
    def test_sigkill_after_commit_keeps_the_row(self, tmp_path):
        path = tmp_path / "crash.sqlite"
        process = writer(path, 1, "crash")
        process.stdin.write("go\n")
        process.stdin.flush()
        run_id = int(process.stdout.readline())
        process.send_signal(signal.SIGKILL)
        process.communicate(timeout=60)
        assert process.returncode == -signal.SIGKILL
        # the commit sits in the log, never checkpointed into the file
        assert (tmp_path / "crash.sqlite-wal").stat().st_size > 0

        assert pragma(path, "integrity_check") == "ok"
        with RunRegistry(path) as registry:
            (row,) = registry.runs()
        assert row.run_id == run_id and row.git_rev == "crash" and row.ok
