"""Black-box smoke: ``repro serve`` as a real subprocess.

This is what the CI service-smoke job runs: start the service on an
ephemeral port, submit a quick-mode fig2 spec over HTTP, watch it to
completion via SSE, fetch the dashboard, and assert the registry
recorded the run.  Set ``REPRO_SMOKE_ARTIFACTS=<dir>`` to keep the
fetched dashboard HTML (CI uploads it).
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.registry import RunRegistry
from repro.service import ServiceClient

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: quick-mode fig2 sweep: a 2-point withdrawal grid, one seed each.
FIG2_QUICK = {
    "grid": {
        "scenario": "withdrawal",
        "n": 6,
        "sdn_counts": [0, 3],
        "runs": 1,
        "mrai": 1.0,
    }
}


def serve_argv(tmp_path):
    """``repro serve --port 0`` on a fresh cache and registry."""
    return [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--cache-dir", str(tmp_path / "cache"),
        "--registry", str(tmp_path / "runs.sqlite"),
        "--concurrency", "2",
    ]


class ServeProcess:
    """A child process (``repro serve`` in these tests) whose merged
    output a reader thread collects; scrapes the bound port."""

    def __init__(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines = []
        self.port = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))

    def wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.lines:
                match = re.search(r"serving on http://[^:]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    return self.port
            if self.process.poll() is not None:
                raise AssertionError(
                    "serve exited before announcing its port:\n"
                    + "\n".join(self.lines)
                )
            time.sleep(0.05)
        raise AssertionError(
            "serve never announced its port:\n" + "\n".join(self.lines)
        )

    def stop(self, reader_timeout: float = 10.0):
        self.process.terminate()
        try:
            self.process.wait(10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(10)
        # The pipe is at EOF once serve and every process that inherited
        # its stdout have exited.  Closing it under a reader still in its
        # read would block on the buffer lock that read holds, so fail.
        self._reader.join(reader_timeout)
        if self._reader.is_alive():
            raise AssertionError(
                "serve exited, but another process still holds its stdout "
                "(a child that outlived it?); output so far:\n"
                + "\n".join(self.lines)
            )
        self.process.stdout.close()


@pytest.fixture
def serve_process(tmp_path):
    process = ServeProcess(serve_argv(tmp_path))
    try:
        yield process
    finally:
        process.stop()


def test_serve_smoke(tmp_path, serve_process):
    port = serve_process.wait_for_port()
    with ServiceClient("127.0.0.1", port, client_id="smoke") as client:

        health = client.healthz()
        assert health["ok"] is True

        jobs = client.submit(FIG2_QUICK)
        assert len(jobs) == 2
        digests = [job["digest"] for job in jobs]

        # watch each job via SSE to completion
        for digest in digests:
            names = []
            final = client.watch(
                digest, on_event=lambda n, p: names.append(n)
            )
            assert final["state"] == "done", final
            assert final["record"]["ok"] is True
            assert "job_finished" in names and names[-1] == "done"

        # results are served and carry the measurement
        for digest in digests:
            result = client.result(digest)
            assert result["ok"] is True
            assert result["convergence_time"] > 0

        # the dashboard renders from the recorded registry
        html = client.dashboard()
        assert html.startswith("<!DOCTYPE html>")
        artifacts = os.environ.get("REPRO_SMOKE_ARTIFACTS")
        if artifacts:
            os.makedirs(artifacts, exist_ok=True)
            with open(os.path.join(artifacts, "dashboard.html"), "w") as fh:
                fh.write(html)

        # the registry recorded each run exactly once (service-side view...)
        for digest in digests:
            rows = client.runs(digest=digest)
            assert len(rows) == 1
            assert rows[0]["ok"] is True

    # ...and on-disk truth agrees after shutdown
    serve_process.stop()
    with RunRegistry(str(tmp_path / "runs.sqlite")) as registry:
        for digest in digests:
            rows = registry.runs(digest=digest)
            assert len(rows) == 1 and rows[0].ok


def exited(pid: int) -> bool:
    """True once ``pid`` is gone, or a zombie nobody reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_sigkilled_server_leaves_no_worker(serve_process):
    """A server killed outright gets no shutdown, so nothing of its own
    kills its workers: the kernel does, because each worker asked for a
    SIGKILL when the thread that forked it ends."""
    port = serve_process.wait_for_port()
    spec = {"scenario": "withdrawal", "n": 5, "sdn_count": 2,
            "seed": 7, "mrai": 1.0}
    with ServiceClient("127.0.0.1", port, client_id="orphans") as client:
        (job,) = client.submit({"spec": spec})
        assert client.watch(job["digest"])["state"] == "done"
    server = serve_process.process
    workers = subprocess.run(
        ["pgrep", "-P", str(server.pid)], capture_output=True, text=True,
    ).stdout.split()
    assert workers
    server.kill()
    server.wait(10)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        survivors = [int(pid) for pid in workers if not exited(int(pid))]
        if not survivors:
            break
        time.sleep(0.05)
    for pid in survivors:  # they hold serve's stdout: end them first
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers {survivors} outlived the SIGKILLed server"


def test_stop_fails_when_a_child_holds_the_pipe():
    """A child that inherited serve's stdout and outlives it keeps the
    reader in its read: ``stop`` must fail after its reader timeout
    instead of blocking forever in ``stdout.close()``."""
    script = (
        "import subprocess, sys, time; "
        "child = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)']); "
        "print(child.pid, flush=True); time.sleep(60)"
    )
    holder = ServeProcess([sys.executable, "-c", script])
    deadline = time.monotonic() + 30.0
    while not holder.lines and time.monotonic() < deadline:
        time.sleep(0.05)
    child = int(holder.lines[0])
    started = time.monotonic()
    try:
        with pytest.raises(AssertionError, match="still holds its stdout"):
            holder.stop(reader_timeout=1.0)
        assert time.monotonic() - started < 5.0
    finally:
        os.kill(child, signal.SIGKILL)
    holder.stop()  # the pipe reaches EOF with the child gone
