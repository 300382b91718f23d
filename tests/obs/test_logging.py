"""Structured logging: JSON schema, correlation ids, env configuration."""

import io
import json
import os

import pytest

from repro.obs import logging as obslog
from repro.obs.logging import (
    LOG_ENV,
    NULL_LOGGER,
    StructuredLogger,
    format_ts,
    get_logger,
    log_enabled,
    new_cid,
)


@pytest.fixture(autouse=True)
def reset_logging_state(monkeypatch):
    """Each test starts unconfigured and leaves no module state behind
    (a log file it configured is closed)."""
    monkeypatch.delenv(LOG_ENV, raising=False)
    obslog._configured = False
    obslog._root = None
    yield
    stream = getattr(obslog._root, "stream", None)
    if isinstance(getattr(stream, "name", None), str) and os.path.isabs(
        stream.name
    ):
        stream.close()
    obslog._configured = False
    obslog._root = None


def lines(stream: io.StringIO):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestStructuredLogger:
    def test_event_line_schema(self):
        stream = io.StringIO()
        logger = StructuredLogger(
            stream, component="runner", clock=lambda: 1700000000.0
        )
        logger.info("sweep_started", jobs=4, workers=2)
        (entry,) = lines(stream)
        assert entry == {
            "ts": "2023-11-14T22:13:20.000Z",
            "level": "info",
            "component": "runner",
            "event": "sweep_started",
            "jobs": 4,
            "workers": 2,
        }

    def test_fields_sorted_and_compact(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream, clock=lambda: 0.0)
        logger.log("e", zebra=1, alpha=2)
        raw = stream.getvalue()
        assert raw.index('"alpha"') < raw.index('"zebra"')
        assert ": " not in raw.split("\n")[0]  # compact separators

    def test_none_fields_dropped(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream, clock=lambda: 0.0)
        logger.info("e", cid=None, kept=0)
        (entry,) = lines(stream)
        assert "cid" not in entry and entry["kept"] == 0

    def test_bind_shares_stream_and_adds_fields(self):
        stream = io.StringIO()
        root = StructuredLogger(stream, clock=lambda: 0.0)
        child = root.bind(component="worker", cid="abc123")
        child.warning("job_failed", index=3)
        (entry,) = lines(stream)
        assert entry["component"] == "worker"
        assert entry["cid"] == "abc123"
        assert entry["level"] == "warning"

    def test_unserializable_values_stringified(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream, clock=lambda: 0.0)
        logger.info("e", obj=object())
        (entry,) = lines(stream)
        assert entry["obj"].startswith("<object object")

    def test_write_errors_swallowed(self):
        class Broken:
            def write(self, text):
                raise OSError("disk full")

            def flush(self):
                raise OSError("disk full")

        StructuredLogger(Broken(), clock=lambda: 0.0).info("e")


class TestCorrelationIds:
    def test_new_cid_shape(self):
        cid = new_cid()
        assert len(cid) == 12
        int(cid, 16)  # hex
        assert new_cid() != cid

    def test_format_ts_utc_millis(self):
        assert format_ts(0.0) == "1970-01-01T00:00:00.000Z"
        assert format_ts(1.5) == "1970-01-01T00:00:01.500Z"


class TestConfiguration:
    def test_disabled_by_default(self):
        assert not log_enabled()
        assert get_logger("x") is NULL_LOGGER

    def test_null_logger_is_inert(self):
        NULL_LOGGER.info("anything", field=1)
        assert NULL_LOGGER.bind(component="y", extra=2) is NULL_LOGGER

    def test_env_file_target(self, tmp_path, monkeypatch):
        path = tmp_path / "repro.log"
        monkeypatch.setenv(LOG_ENV, str(path))
        logger = get_logger("test-component")
        assert log_enabled()
        logger.info("hello", n=1)
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["event"] == "hello"
        assert entry["component"] == "test-component"

    def test_env_stderr_target(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_ENV, "stderr")
        get_logger("c").info("to_stderr")
        assert "to_stderr" in capsys.readouterr().err

    def test_empty_env_disables(self, monkeypatch):
        monkeypatch.setenv(LOG_ENV, "")
        assert get_logger("c") is NULL_LOGGER
        assert not log_enabled()


@pytest.fixture
def log_file(tmp_path, monkeypatch):
    """``REPRO_LOG`` names a file (pool workers inherit it); yields a
    reader of the lines written so far."""
    path = tmp_path / "repro.log"
    monkeypatch.setenv(LOG_ENV, str(path))
    yield lambda: [json.loads(line) for line in path.read_text().splitlines()]


class TestRunnerLog:
    """The runner's structured log is one sink of its event stream."""

    def test_two_worker_sweep_logs_each_event_once(self, log_file):
        from repro.runner import ParallelRunner
        from tests.runner.scenarios import ExplodingWithdrawal
        from tests.runner.test_jobs import make_spec

        specs = [
            make_spec(seed=71),
            make_spec(seed=72, scenario_factory=ExplodingWithdrawal),
        ]
        runner = ParallelRunner(2, retries=0, timeout=60.0)
        records = runner.run(specs)
        assert [r.ok for r in records] == [True, False]
        entries = log_file()
        cid = runner.cid
        assert len(cid) == 12

        runner_lines = [e for e in entries if e["component"] == "runner"]
        assert sorted(e["event"] for e in runner_lines) == sorted([
            "sweep_started", "job_started", "job_started",
            "job_finished", "job_finished", "sweep_finished",
        ])
        assert {e["cid"] for e in runner_lines} == {cid}
        # the lines carry the SSE frame's fields
        (started,) = [e for e in runner_lines if e["event"] == "sweep_started"]
        assert (started["total"], started["workers"]) == (2, 2)
        finished = {
            e["index"]: e for e in runner_lines if e["event"] == "job_finished"
        }
        assert finished[0]["level"] == "info"
        assert finished[0]["digest"] == specs[0].digest()
        assert finished[1]["level"] == "warning"
        assert finished[1]["record"]["ok"] is False
        assert "exploded on purpose" in finished[1]["record"]["error"]

        worker_lines = [e for e in entries if e["component"] == "worker"]
        assert {
            e["cid"] for e in worker_lines if e["event"] == "trial_started"
        } == {f"{cid}/0", f"{cid}/1"}
        (failed,) = [e for e in worker_lines if e["event"] == "trial_failed"]
        assert failed["cid"] == f"{cid}/1"

    def test_service_job_lines_carry_the_echoed_cid(self, tmp_path, log_file):
        from repro.service import ServiceClient
        from tests.service.test_http import QUICK_SPEC, serve

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                assert client.watch(job["digest"])["state"] == "done"
                return client.status(job["digest"])["cid"]

        cid = serve(tmp_path, body)
        entries = log_file()
        runner_lines = [
            e for e in entries
            if e["component"] == "runner" and e.get("cid") == cid
        ]
        assert [e["event"] for e in runner_lines] == [
            "sweep_started", "job_started", "job_finished", "sweep_finished",
        ]
        assert {
            e["cid"] for e in entries if e["component"] == "worker"
        } == {f"{cid}/0"}
