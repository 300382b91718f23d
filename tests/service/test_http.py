"""HTTP surface of the service: routes, errors, SSE, and the
concurrent-clients acceptance scenario."""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.obs.registry import RunRegistry
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    start_service,
)

QUICK_SPEC = {
    "scenario": "withdrawal", "n": 5, "sdn_count": 2,
    "seed": 7, "mrai": 1.0,
}


def serve(tmp_path, body, **overrides):
    """Start a service on an ephemeral port, run ``body(port, app,
    loop)`` in a thread (so it can use the blocking client), tear down."""
    config = ServiceConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=str(tmp_path / "cache"),
        registry_path=str(tmp_path / "runs.sqlite"),
        concurrency=overrides.pop("concurrency", 2),
        max_queue=overrides.pop("max_queue", 16),
        quota=overrides.pop("quota", 8),
    )
    assert not overrides

    async def main():
        server, app = await start_service(config)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, body, port, app, loop
            )
        finally:
            server.close()
            await server.wait_closed()
            await app.manager.aclose()

    return asyncio.run(main())


def read_response(sock) -> bytes:
    """One whole response off ``sock``: its ``Content-Length`` body, or
    everything up to EOF when it says ``Connection: close``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk
    head = data.partition(b"\r\n\r\n")[0].lower()
    if b"\r\nconnection: close" in head:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk
    length = int(head.partition(b"content-length: ")[2].split(b"\r\n")[0])
    while len(data) < len(head) + 4 + length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


def raw_request(port: int, payload: bytes) -> bytes:
    """One raw TCP request/response against the service."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        return read_response(sock)


class TestAcceptance:
    def test_concurrent_same_digest_single_execution_and_quota_429(
        self, tmp_path
    ):
        """The issue's end-to-end criterion: two concurrent clients
        submit the same RunSpec digest — exactly one trial executes,
        both receive bit-identical result bytes, the registry records
        the run once — and a submission past the quota limit receives
        429 with Retry-After."""

        def body(port, app, loop):
            payload = {"spec": QUICK_SPEC}
            results = {}
            barrier = threading.Barrier(2)

            def client_thread(name):
                with ServiceClient(
                    "127.0.0.1", port, client_id=name
                ) as client:
                    barrier.wait()  # submit as near-simultaneously as we can
                    (job,) = client.submit(payload)
                    final = client.watch(job["digest"])
                    assert final["state"] == "done"
                    results[name] = (
                        job["digest"], client.result_bytes(job["digest"])
                    )

            threads = [
                threading.Thread(target=client_thread, args=(name,))
                for name in ("alice", "bob")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()

            digest_a, bytes_a = results["alice"]
            digest_b, bytes_b = results["bob"]
            assert digest_a == digest_b
            # bit-identical result bodies for both clients
            assert bytes_a == bytes_b
            record = json.loads(bytes_a)
            assert record["ok"] is True

            # exactly one execution: one job, one job_started event
            job = app.manager.jobs[digest_a]
            starts = [
                e for e in job.events if e["event"] == "job_started"
            ]
            assert len(starts) == 1
            assert job.clients == {"alice", "bob"}

            # the run appears once in the registry
            with ServiceClient("127.0.0.1", port, client_id="check") as client:
                rows = client.runs(digest=digest_a)
            assert len(rows) == 1
            assert rows[0]["ok"] is True

            # a submission past the quota limit: 429 + Retry-After
            greedy = ServiceClient("127.0.0.1", port, client_id="greedy")
            with greedy, pytest.raises(ServiceClientError) as excinfo:
                greedy.submit(
                    {
                        "grid": {
                            "scenario": "withdrawal", "n": 5,
                            "sdn_counts": [0, 1, 2], "runs": 1,
                            "mrai": 1.0,
                        }
                    }
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0

        serve(tmp_path, body, quota=2)


class TestWorkerDeath:
    def test_trial_that_kills_its_worker_once_is_retried(
        self, tmp_path, monkeypatch
    ):
        """A trial that SIGKILLs its own worker on its first attempt is
        charged that attempt and run again in a fresh pool: the job ends
        done on attempt 2, and the server keeps answering."""
        from tests.service.test_manager import kill_own_worker, patch_trial

        flag = tmp_path / "killed-once"

        def kill_once(spec):
            if not flag.exists():
                flag.write_text("")
                kill_own_worker()

        patch_trial(monkeypatch, kill_once)

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                final = client.watch(job["digest"])
                assert final["state"] == "done"
                assert final["record"]["attempts"] == 2
                assert client.healthz()["ok"] is True
                (after,) = client.submit({"spec": {**QUICK_SPEC, "seed": 8}})
                assert client.watch(after["digest"])["state"] == "done"

        serve(tmp_path, body)


class TestRoutes:
    def test_submit_watch_result_dashboard(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                assert client.healthz()["ok"] is True

                (job,) = client.submit({"spec": QUICK_SPEC})
                digest = job["digest"]

                events = []
                final = client.watch(
                    digest, on_event=lambda n, p: events.append(n)
                )
                assert final["state"] == "done"
                assert events == [
                    "sweep_started", "job_started", "job_finished",
                    "sweep_finished", "done",
                ]

                result = client.result(digest)
                assert result["ok"] and result["convergence_time"] > 0

                status = client.status(digest)
                assert status["state"] == "done"
                assert status["record"]["ok"] is True

                # resubmission dedups instantly (same job, no new execution)
                (again,) = client.submit({"spec": QUICK_SPEC})
                assert again["state"] == "done"

                html = client.dashboard()
                assert html.startswith("<!DOCTYPE html>")
                assert "WithdrawalScenario" in html  # the recorded scenario

                jobs = client.jobs()
                assert jobs["stats"]["jobs"] == 1

        serve(tmp_path, body)

    def test_result_body_carries_every_result_payload(self, tmp_path):
        """A JSON-submitted job can ask for every payload the result
        body declares — anatomy included — and gets them non-null."""
        from repro.runner.jobs import RECORD_PAYLOADS, RESULT_PAYLOADS

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                spec = {
                    **QUICK_SPEC, "metrics": True, "spans": True,
                    "anatomy": True,
                }
                (job,) = client.submit({"spec": spec})
                assert client.watch(job["digest"])["state"] == "done"
                result = client.result(job["digest"])
                for name in RESULT_PAYLOADS:
                    expected = RECORD_PAYLOADS[name]
                    assert isinstance(result[name], expected), name
                # execution accounting stays out of the canonical body
                accounting = set(RECORD_PAYLOADS) - set(RESULT_PAYLOADS)
                assert accounting and not accounting & set(result)

        serve(tmp_path, body)

    def test_sse_late_subscriber_replays_history(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                # job finished; a late watcher still sees the whole story
                names = [n for n, _ in client.events(job["digest"])]
                assert names[0] == "sweep_started"
                assert names[-1] == "done"

        serve(tmp_path, body)

    def test_sse_disconnect_does_not_stall_job(self, tmp_path):
        """A client that opens the event stream and vanishes must not
        prevent the job from completing (satellite: SSE bridge)."""

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                digest = job["digest"]

                # open the SSE stream raw, read a little, hang up mid-run
                sock = socket.create_connection(("127.0.0.1", port), 30)
                sock.sendall(
                    f"GET /api/jobs/{digest}/events HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n".encode()
                )
                sock.recv(64)
                sock.close()

                final = client.watch(digest)
                assert final["state"] == "done"
                assert final["record"]["ok"] is True

        serve(tmp_path, body)

    def test_cancel_endpoint(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                # concurrency 1: second job queues behind the first
                (first,) = client.submit(
                    {"spec": {**QUICK_SPEC, "seed": 1}}
                )
                (queued,) = client.submit(
                    {"spec": {**QUICK_SPEC, "seed": 2}}
                )
                # a queued job cancels instantly; one that already started
                # stays "running" until its trial lands (or even "done" if
                # it finished before the cancel arrived)
                cancelled = client.cancel(queued["digest"])
                assert cancelled["state"] in ("cancelled", "running", "done")
                final = client.watch(queued["digest"])
                assert final["state"] in ("cancelled", "done")
                if final["state"] == "cancelled":
                    assert final["record"]["cancelled"] is True
                # the other job is unaffected
                assert client.watch(first["digest"])["state"] == "done"

        serve(tmp_path, body, concurrency=1)

    def test_registry_endpoints(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                rows = client.runs()
                assert len(rows) == 1
                run_id = rows[0]["run_id"]
                row = client._json("GET", f"/api/runs/{run_id}")
                assert row["spec_digest"] == job["digest"]

        serve(tmp_path, body)

    def test_run_anatomy_endpoint(self, tmp_path):
        from repro.obs.anatomy import check_anatomy

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                # a traced run: the registry derives and stores anatomy
                (job,) = client.submit({"spec": {**QUICK_SPEC, "spans": True}})
                client.watch(job["digest"])
                (traced_row,) = client.runs()
                run_id = traced_row["run_id"]
                payload = client._json("GET", f"/api/runs/{run_id}/anatomy")
                assert payload["run_id"] == run_id
                anatomy = payload["anatomy"]
                assert anatomy["nodes"]
                assert check_anatomy(anatomy) == []

                # a span-free run carries no attribution: explicit 404
                (job2,) = client.submit(
                    {"spec": {**QUICK_SPEC, "seed": 8}}
                )
                client.watch(job2["digest"])
                bare = next(
                    row for row in client.runs()
                    if row["spec_digest"] == job2["digest"]
                )
                with pytest.raises(ServiceClientError) as excinfo:
                    client._json(
                        "GET", f"/api/runs/{bare['run_id']}/anatomy"
                    )
                assert "404" in str(excinfo.value)

        serve(tmp_path, body)

    def test_registry_reads_reuse_the_process_revision(
        self, tmp_path, monkeypatch
    ):
        """Serving the run log resolves no git revision of its own."""
        from repro.obs import registry as registry_module

        calls = []

        def counting_rev(cwd=None):
            calls.append(cwd)
            return "abc1234"

        monkeypatch.setattr(registry_module, "current_git_rev", counting_rev)

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                (row,) = client.runs()
                assert row["git_rev"] == "abc1234"
                client._json("GET", f"/api/runs/{row['run_id']}")
                assert "<html" in client.dashboard().lower()

        serve(tmp_path, body)
        assert len(calls) == 1

    def test_registry_persists_after_service(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                return job["digest"]

        digest = serve(tmp_path, body)
        with RunRegistry(str(tmp_path / "runs.sqlite")) as registry:
            rows = registry.runs(digest=digest)
            assert len(rows) == 1 and rows[0].ok


class TestListening:
    def test_a_host_name_is_resolved_without_a_thread(self):
        """``--host localhost`` listens from a one-thread process: the
        name is resolved before listening, so asyncio starts no
        resolver thread beside the loop the workers are forked from."""
        before = set(threading.enumerate())

        async def main():
            server, app = await start_service(
                ServiceConfig(host="localhost", port=0)
            )
            try:
                return set(threading.enumerate()) - before
            finally:
                server.close()
                await server.wait_closed()
                await app.manager.aclose()

        assert asyncio.run(main()) == set()


class TestConnections:
    def test_requests_are_read_in_header_sized_chunks(
        self, tmp_path, monkeypatch
    ):
        """No request allocates the transport's default 256 KiB read
        buffer."""
        from repro.service.app import ServiceApp
        from repro.service.http import MAX_HEADER_BYTES

        seen = []
        dispatch = ServiceApp._timed_dispatch

        async def spy(self, request, writer):
            seen.append(writer.transport.max_size)
            return await dispatch(self, request, writer)

        monkeypatch.setattr(ServiceApp, "_timed_dispatch", spy)

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                client.healthz()
                client.jobs()

        serve(tmp_path, body)
        assert seen == [MAX_HEADER_BYTES] * 2

    def test_two_requests_on_one_socket_get_two_responses(self, tmp_path):
        def body(port, app, loop):
            with socket.create_connection(("127.0.0.1", port), 30) as sock:
                for path in ("/healthz", "/api/jobs"):
                    sock.sendall(
                        f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                    )
                    head, _, text = read_response(sock).partition(b"\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200 OK")
                    assert b"Connection" not in head
                    assert json.loads(text)
            assert connections(app) == 1

        serve(tmp_path, body)

    @pytest.mark.parametrize("request_head", [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ])
    def test_close_request_and_http10_end_the_connection(
        self, tmp_path, request_head
    ):
        def body(port, app, loop):
            assert_closing_reply(port, request_head, b"200 OK")

        serve(tmp_path, body)

    @pytest.mark.parametrize("request_head, status", [
        (b"GET /healthz\r\nHost: x\r\n\r\n", b"400 Bad Request"),
        (
            b"POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 10000000\r\n\r\n",
            b"413 Payload Too Large",
        ),
        (
            b"POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 20\r\n\r\n{}",
            b"400 Bad Request",
        ),
    ])
    def test_unreadable_request_gets_its_error_then_eof(
        self, tmp_path, request_head, status
    ):
        def body(port, app, loop):
            assert_closing_reply(port, request_head, status)

        serve(tmp_path, body)

    def test_chunked_body_is_not_parsed_as_the_next_request(self, tmp_path):
        """A chunked POST is refused and its connection closed: the
        request smuggled in its body and the GET after it get no
        reply."""

        def body(port, app, loop):
            smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(smuggled), smuggled)
            reply = assert_closing_reply(
                port,
                b"POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n" + chunk + smuggled,
                b"501 Not Implemented",
            )
            assert reply.count(b"HTTP/1.1 ") == 1
            assert b"Transfer-Encoding" in reply

        serve(tmp_path, body)

    def test_one_client_holds_one_connection(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                while client.status(job["digest"])["state"] != "done":
                    time.sleep(0.02)
                for _ in range(5):
                    client.result_bytes(job["digest"])
                    client.submit({"spec": QUICK_SPEC})
                client.jobs()
                assert connections(app) == 1
                client.watch(job["digest"])  # SSE: a connection of its own
                client.healthz()
            assert connections(app) == 2

        serve(tmp_path, body)

    def test_client_reconnects_after_the_server_drops_it(
        self, tmp_path, monkeypatch
    ):
        from repro.service import app as app_module

        monkeypatch.setattr(app_module, "IDLE_CLOSE_S", 0.1)

        def body(port, app, loop):
            client = ServiceClient("127.0.0.1", port, client_id="t")
            assert client.healthz()["ok"] is True
            time.sleep(0.5)  # the server closes the idle connection
            assert client.healthz()["ok"] is True
            assert connections(app) == 2
            client.close()

        serve(tmp_path, body)

    def test_client_reconnects_after_an_executed_job(
        self, tmp_path, monkeypatch
    ):
        """The connection that submitted the first executed job (the
        one the worker processes are forked under) is closed for real
        when it idles out: the client's next request reconnects instead
        of waiting on a socket a worker still holds open."""
        from repro.service import app as app_module

        monkeypatch.setattr(app_module, "IDLE_CLOSE_S", 0.3)

        def body(port, app, loop):
            client = ServiceClient(
                "127.0.0.1", port, client_id="t", timeout=5.0
            )
            try:
                (job,) = client.submit({"spec": QUICK_SPEC})
                assert client.watch(job["digest"])["state"] == "done"
                assert client.healthz()["ok"] is True
                time.sleep(1.0)  # the server closes the idle connection
                assert client.healthz()["ok"] is True
                assert client.status(job["digest"])["state"] == "done"
            finally:
                client.close()

        serve(tmp_path, body, concurrency=1)

    def test_teardown_closes_an_idle_client_connection(self, tmp_path):
        """``server.close()`` + ``wait_closed()`` returns while a client
        holds an idle connection (Python 3.12.1 on waits for every open
        connection in ``wait_closed``)."""
        clients = []

        def body(port, app, loop):
            clients.append(ServiceClient("127.0.0.1", port, client_id="t"))
            clients[0].healthz()
            return time.monotonic()

        returned = serve(tmp_path, body)
        assert time.monotonic() - returned < 1.0
        clients[0].close()

    def test_teardown_ends_a_watched_unfinished_job_stream(
        self, tmp_path, monkeypatch
    ):
        """``server.close()`` ends an open SSE stream whose job cannot
        finish (its trial is blocked): the watcher sees the stream end
        without a ``done`` frame, and ``wait_closed()`` returns at once
        (Python 3.12.1 on waits for the stream's connection there)."""
        from repro.runner import jobs as jobs_module

        # Patched before the first dispatch: the forked worker has it.
        monkeypatch.setattr(
            jobs_module, "run_trial_full",
            lambda spec, info=None: time.sleep(60),
        )
        config = ServiceConfig(
            host="127.0.0.1", port=0, cache_dir=str(tmp_path / "cache"),
        )

        def watch(client, digest):
            try:
                client.watch(digest, timeout=30)
            except ServiceClientError as exc:
                return exc
            return None

        async def main():
            server, app = await start_service(config)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            try:
                with ServiceClient("127.0.0.1", port, client_id="t") as client:
                    (job,) = await loop.run_in_executor(
                        None, client.submit, {"spec": QUICK_SPEC}
                    )
                    watcher = loop.run_in_executor(
                        None, watch, client, job["digest"]
                    )
                    while not app.manager.telemetry()["subscribers"]:
                        await asyncio.sleep(0.01)
                    start = time.monotonic()
                    server.close()
                    await asyncio.wait_for(server.wait_closed(), 5)
                    error = await asyncio.wait_for(watcher, 5)
                    elapsed = time.monotonic() - start
                    state = app.manager.jobs[job["digest"]].state
            finally:
                await app.manager.aclose()
            return error, elapsed, state

        error, elapsed, state = asyncio.run(main())
        assert state == "running"  # the job could not finish
        assert isinstance(error, ServiceClientError)
        assert "ended without a done event" in str(error)
        assert elapsed < 1.0

    def test_sse_stream_closes_after_done(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                with socket.create_connection(("127.0.0.1", port), 30) as sock:
                    sock.sendall(
                        f"GET /api/jobs/{job['digest']}/events HTTP/1.1\r\n"
                        f"Host: x\r\n\r\n".encode()
                    )
                    stream = read_response(sock)  # to EOF
                head, _, frames = stream.partition(b"\r\n\r\n")
                assert b"Connection: close" in head
                assert frames.rstrip().split(b"\n\n")[-1].startswith(
                    b"event: done"
                )

        serve(tmp_path, body)


def connections(app) -> int:
    """Connections the service has accepted so far."""
    return int(app.metrics.counter("service.connections_total").value)


def assert_closing_reply(port: int, payload: bytes, status: bytes) -> bytes:
    """Send ``payload`` on a fresh socket: the one reply carries
    ``status`` and ``Connection: close``, then the server hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        reply = read_response(sock)
        assert sock.recv(1) == b""
    head = reply.partition(b"\r\n\r\n")[0]
    assert head.startswith(b"HTTP/1.1 " + status), reply
    assert b"\r\nConnection: close" in head
    return reply


class TestErrors:
    @pytest.mark.parametrize("suffix", ["", "/anatomy"])
    def test_run_routes_reject_bad_and_unknown_ids(self, tmp_path, suffix):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                with pytest.raises(ServiceClientError) as excinfo:
                    client._json("GET", f"/api/runs/one{suffix}")
                assert excinfo.value.status == 400
                assert "must be an integer" in str(excinfo.value)
                with pytest.raises(ServiceClientError) as excinfo:
                    client._json("GET", f"/api/runs/999{suffix}")
                assert excinfo.value.status == 404
                assert "no recorded run 999" in str(excinfo.value)

        serve(tmp_path, body)

    def test_bad_payload_is_clean_400_with_details(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                with pytest.raises(ServiceClientError) as excinfo:
                    client.submit(
                        {"spec": {"scenario": "nope", "n": 1, "junk": True}}
                    )
                assert excinfo.value.status == 400
                detail = "\n".join(excinfo.value.detail)
                assert "unknown field 'junk'" in detail
                assert "field 'scenario'" in detail

        serve(tmp_path, body)

    def test_deleted_profiler_fields_are_unknown_field_400s(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                grid = {"scenario": "withdrawal", "n": 4, "runs": 1}
                for field, value in (("profile", True), ("sample_hz", 100.0)):
                    for payload in (
                        {"spec": {**QUICK_SPEC, field: value}},
                        {"grid": {**grid, field: value}},
                    ):
                        with pytest.raises(ServiceClientError) as excinfo:
                            client.submit(payload)
                        assert excinfo.value.status == 400
                        detail = "\n".join(excinfo.value.detail)
                        assert f"unknown field {field!r}" in detail
                assert client.jobs()["stats"]["jobs"] == 0

        serve(tmp_path, body)

    def test_unimplemented_policy_mode_is_400_not_a_failed_job(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                with pytest.raises(ServiceClientError) as excinfo:
                    client.submit(
                        {"spec": {**QUICK_SPEC, "policy_mode": "bogus"}}
                    )
                assert excinfo.value.status == 400
                detail = "\n".join(excinfo.value.detail)
                assert "flat" in detail and "gao_rexford" in detail
                assert client.jobs()["stats"]["jobs"] == 0

        serve(tmp_path, body)

    def test_malformed_json_is_400(self, tmp_path):
        def body(port, app, loop):
            response = raw_request(
                port,
                b"POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 9\r\n\r\n{not json",
            )
            assert b"400 Bad Request" in response
            assert b"not valid JSON" in response

        serve(tmp_path, body)

    def test_unknown_routes_and_methods(self, tmp_path):
        def body(port, app, loop):
            assert b"404" in raw_request(
                port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert b"405" in raw_request(
                port, b"PUT /api/jobs HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert b"404" in raw_request(
                port,
                b"GET /api/jobs/deadbeef HTTP/1.1\r\nHost: x\r\n\r\n",
            )

        serve(tmp_path, body)

    def test_result_before_completion_is_409(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (first,) = client.submit({"spec": {**QUICK_SPEC, "seed": 1}})
                (queued,) = client.submit({"spec": {**QUICK_SPEC, "seed": 2}})
                # the queued job cannot have a result yet
                if queued["state"] in ("queued", "running"):
                    with pytest.raises(ServiceClientError) as excinfo:
                        client.result(queued["digest"])
                    assert excinfo.value.status == 409
                client.watch(first["digest"])
                client.watch(queued["digest"])

        serve(tmp_path, body, concurrency=1)

    def test_oversized_body_is_413(self, tmp_path):
        def body(port, app, loop):
            huge = 10_000_000
            response = raw_request(
                port,
                b"POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {huge}\r\n\r\n".encode(),
            )
            assert b"413" in response

        serve(tmp_path, body)


def http_get(port: int, path: str):
    """One raw GET, split into (status_line, headers, body text)."""
    response = raw_request(
        port, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
    )
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").splitlines()
    return lines[0], lines[1:], body.decode("utf-8")


class TestMissCost:
    def test_misses_make_no_walk_that_grows_with_the_cache(
        self, tmp_path, monkeypatch
    ):
        """A miss pays for its trial, not for the cache's size: with
        500 entries on disk, N distinct misses list the cache directory
        0 times (``/metrics`` still does, at scrape time), their
        ``sweep_finished`` frames leave the totals unread, and the
        registry holds exactly N runs."""
        import dataclasses

        from repro.config import runspec_from_json
        from repro.runner import ResultCache, execute_spec

        cache = ResultCache(tmp_path / "cache")
        spec = runspec_from_json(QUICK_SPEC)
        record = execute_spec(spec)
        for i in range(500):
            cache.put(spec, dataclasses.replace(record, digest=f"{i:064x}"))

        walks = []
        stats, entries = ResultCache.stats, ResultCache._entries

        def counting_stats(self):
            walks.append("stats")
            return stats(self)

        def counting_entries(self):
            walks.append("_entries")
            return entries(self)

        monkeypatch.setattr(ResultCache, "stats", counting_stats)
        monkeypatch.setattr(ResultCache, "_entries", counting_entries)
        seeds = (101, 102, 103)

        def body(port, app, loop):
            from repro.obs.runtime import parse_prometheus

            timings = []

            def keep_timing(name, payload):
                if name == "sweep_finished":
                    timings.append(payload["timing"])

            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                for seed in seeds:
                    (job,) = client.submit(
                        {"spec": {**QUICK_SPEC, "seed": seed}}
                    )
                    final = client.watch(job["digest"], on_event=keep_timing)
                    assert final["state"] == "done"
                    assert final["record"]["cached"] is False
            assert walks == []
            assert [
                (t["cache_misses"], t["cache_entries"], t["cache_bytes"])
                for t in timings
            ] == [(1, None, None)] * len(seeds)

            _, _, text = http_get(port, "/metrics")
            assert walks == ["stats", "_entries"]
            assert parse_prometheus(text).value(
                "repro_service_cache_entries"
            ) == 500 + len(seeds)

        serve(tmp_path, body)
        with RunRegistry(str(tmp_path / "runs.sqlite")) as registry:
            runs = registry.runs()
            assert sorted(row.seed for row in runs) == list(seeds)
            assert len(registry.sweeps()) == len(seeds)


class TestTelemetryEndpoints:
    def test_metrics_exposition_mid_service(self, tmp_path):
        """Scrape /metrics after real traffic: request counters,
        latency histograms, and manager gauges must all parse with the
        stdlib parser the CI smoke harness uses."""
        from repro.obs.runtime import CONTENT_TYPE, parse_prometheus

        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                raw_request(port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")

                status, headers, text = http_get(port, "/metrics")
                assert " 200 " in status
                assert any(
                    h.lower() == f"content-type: {CONTENT_TYPE}"
                    for h in headers
                )
                scrape = parse_prometheus(text)

                assert scrape.value("repro_service_jobs_tracked") == 1
                assert scrape.value("repro_service_jobs_in_flight") == 0
                assert scrape.value(
                    "repro_service_requests", route="/api/jobs", method="POST"
                ) >= 1
                assert scrape.value(
                    "repro_service_errors", route="/nope", status="404"
                ) == 1
                assert scrape.value(
                    "repro_service_request_seconds_count", route="/api/jobs"
                ) >= 1
                assert scrape.value("repro_service_cache_entries") == 1
                # the client's held connection, its SSE stream, the 404
                # and this scrape
                assert scrape.value("repro_service_connections_total") == 4
                assert scrape.value("repro_service_uptime_seconds") > 0
                # trials run in worker processes: the server interns no
                # routes, so it exposes no intern-pool gauges
                assert not [
                    key for key in scrape.samples
                    if key.startswith("repro_intern")
                ]
                assert scrape.types["repro_service_request_seconds"] == (
                    "histogram"
                )

                # a second scrape observes the first: the exposition route
                # meters itself like any other
                _, _, text2 = http_get(port, "/metrics")
                assert parse_prometheus(text2).value(
                    "repro_service_requests", route="/metrics", method="GET"
                ) >= 1

        serve(tmp_path, body)

    def test_status_ready_and_not_ready(self, tmp_path):
        def body(port, app, loop):
            status, _, text = http_get(port, "/api/status")
            assert " 200 " in status
            payload = json.loads(text)
            assert payload["live"] is True
            assert payload["ready"] is True
            assert payload["reasons"] == []
            assert payload["uptime_s"] >= 0
            assert payload["telemetry"]["queued"] == 0
            assert "cache" in payload

            # readiness is distinct from liveness: with the worker pool
            # gone the service still answers, but with a 503 and a
            # machine-readable reason
            workers = app.manager._workers[:]
            app.manager._workers.clear()
            try:
                status, _, text = http_get(port, "/api/status")
            finally:
                app.manager._workers.extend(workers)
            assert " 503 " in status
            payload = json.loads(text)
            assert payload["live"] is True
            assert payload["ready"] is False
            assert payload["reasons"] == ["workers not started"]

        serve(tmp_path, body)

    def test_status_reports_drops_after_job(self, tmp_path):
        def body(port, app, loop):
            with ServiceClient("127.0.0.1", port, client_id="t") as client:
                (job,) = client.submit({"spec": QUICK_SPEC})
                client.watch(job["digest"])
                _, _, text = http_get(port, "/api/status")
                telemetry = json.loads(text)["telemetry"]
                assert telemetry["jobs"] == 1
                assert telemetry["dropped_frames"] == 0
                assert "trace_dropped_records" not in telemetry
                assert telemetry["rejected_quota"] == 0

        serve(tmp_path, body)
