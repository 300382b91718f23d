"""Black-box smoke: ``repro serve`` as a real subprocess.

This is what the CI service-smoke job runs: start the service on an
ephemeral port, submit a quick-mode fig2 spec over HTTP, watch it to
completion via SSE, fetch the dashboard, and assert the registry
recorded the run.  Set ``REPRO_SMOKE_ARTIFACTS=<dir>`` to keep the
fetched dashboard HTML (CI uploads it).
"""

import os
import re
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


class ServeProcess:
    """``repro serve --port 0`` wrapper that scrapes the bound port."""

    def __init__(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
                "--registry", str(tmp_path / "runs.sqlite"),
                "--concurrency", "2",
            ],
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

    def stop(self):
        self.process.terminate()
        try:
            self.process.wait(10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(10)
        self._reader.join(10)  # the pipe is at EOF once serve exits
        self.process.stdout.close()


@pytest.fixture
def serve_process(tmp_path):
    process = ServeProcess(tmp_path)
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
