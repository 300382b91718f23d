"""The service HTTP application: routes, server lifecycle, SSE.

:class:`ServiceApp` maps the request surface onto a
:class:`~repro.service.manager.JobManager` plus the obs stack:

====== ================================== ===============================
Method Path                               Meaning
====== ================================== ===============================
GET    ``/healthz``                       liveness + queue stats
GET    ``/metrics``                       Prometheus text exposition
GET    ``/api/status``                    liveness + readiness (503)
GET    ``/dashboard``                     telemetry dashboard (HTML)
GET    ``/api/jobs``                      job table + stats
POST   ``/api/jobs``                      submit a spec or sweep grid
GET    ``/api/jobs/<digest>``             job status
DELETE ``/api/jobs/<digest>``             cancel
GET    ``/api/jobs/<digest>/result``      full result record (JSON)
GET    ``/api/jobs/<digest>/events``      live progress (SSE)
GET    ``/api/jobs/<digest>/provenance``  causal run report (text)
GET    ``/api/runs``                      recorded registry runs
GET    ``/api/runs/<id>``                 one registry run row
GET    ``/api/runs/<id>/anatomy``         critical-path delay attribution
====== ================================== ===============================

Semantics worth naming: submissions are validated by
:mod:`repro.config.specio` (bad payloads are clean 400s listing every
problem), admission is all-or-nothing (quota/queue violations are 429
with ``Retry-After``), and results are canonical JSON
(``sort_keys``) — two clients fetching the same digest receive
bit-identical bodies.  See ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Set

from ..config import ServiceConfig
from ..eventsim.metrics import MetricsRegistry
from ..runner.cache import ResultCache
from ..runner.jobs import RunRecord
from .http import (
    MAX_HEADER_BYTES,
    HttpError,
    Request,
    Response,
    error_response,
    json_response,
    read_request,
    sse_frame,
    sse_headers,
)
from .manager import JobManager, SubmitRejected

__all__ = [
    "ServiceConfig", "ServiceApp", "ServiceServer", "start_service",
    "run_service",
]

#: keep-alive comment frame cadence on idle SSE streams (seconds).
SSE_HEARTBEAT = 15.0
#: a persistent connection with no request for this long is closed
#: (seconds); a client that comes back later opens a new one.
IDLE_CLOSE_S = 30.0


def record_payload(record: RunRecord) -> Dict[str, Any]:
    """The full JSON form of a result record (the ``/result`` body).

    ``convergence_time``/``updates_tx`` are hoisted out of the
    measurement (they are derived properties, not stored fields), so
    clients read the headline numbers without knowing the measurement
    schema.
    """
    headline: Dict[str, Any] = {}
    if record.measurement is not None:
        headline = {
            "convergence_time": record.measurement.convergence_time,
            "updates_tx": record.measurement.updates_tx,
        }
    return {
        **headline,
        "digest": record.digest,
        "ok": record.ok,
        "cached": record.cached,
        "cancelled": record.cancelled,
        "attempts": record.attempts,
        "worker": record.worker,
        "measurement": record.measurement_dict() or None,
        **record.payloads(result_only=True),
        "error": record.error,
    }


class ServiceApp:
    """Route dispatch over one :class:`JobManager`."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        cache = (
            ResultCache(config.cache_dir)
            if config.cache_dir else None
        )
        self.manager = JobManager(
            cache=cache,
            registry_path=config.registry_path,
            concurrency=config.concurrency,
            max_queue=config.max_queue,
            quota=config.quota,
        )
        #: request counters + per-route latency histograms, exposed on
        #: ``/metrics`` alongside the scrape-time service gauges.
        self.metrics = MetricsRegistry()
        self._connections = self.metrics.counter("service.connections_total")
        self._started_monotonic = time.monotonic()
        #: writers of the connections waiting for their next request;
        #: closing one ends its connection at once.
        self._idle: Set[asyncio.StreamWriter] = set()
        #: the subscriber queues of the open SSE streams.
        self._streams: Set[asyncio.Queue] = set()
        #: set once the server stops listening: every connection ends
        #: after the reply or SSE frame it is sending.
        self._closing = False

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def handle_connection(self, reader, writer) -> None:
        """Answer requests on one connection until either side ends it.

        The connection closes after a request that asks for it
        (``Connection: close`` or HTTP/1.0), after any error reading a
        request (the stream's framing is then unknown), after a 500,
        after an SSE stream, and after :data:`IDLE_CLOSE_S` without a
        request.
        """
        # The selector transport reads up to 256 KiB per recv and then
        # shrinks the buffer to the few hundred bytes a request has; on
        # some heap layouts each shrink trims the heap top and the next
        # read grows it again, page faults on every request.
        # Header-sized reads stay below malloc's trim threshold.
        writer.transport.max_size = MAX_HEADER_BYTES
        self._connections.inc()
        loop = asyncio.get_running_loop()
        try:
            while not self._closing:
                idle_timer = loop.call_later(IDLE_CLOSE_S, writer.close)
                self._idle.add(writer)
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(error_response(exc).encode(close=True))
                    await writer.drain()
                    return
                finally:
                    self._idle.discard(writer)
                    idle_timer.cancel()
                if request is None:
                    return
                close = not request.keep_alive
                try:
                    response = await self._timed_dispatch(request, writer)
                except HttpError as exc:
                    response = error_response(exc)
                except Exception as exc:  # pragma: no cover - defensive
                    response = json_response(
                        500, {"error": f"internal error: {exc!r}"}
                    )
                    close = True
                if response is None:
                    return  # an SSE stream: it ended its connection
                close = close or self._closing
                writer.write(response.encode(close=close))
                await writer.drain()
                if close:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # Cancelled here only by the loop's teardown, as the
                # body above may be: ending quietly keeps Python 3.11's
                # stream callback from logging a cancelled handler.
                pass

    def close_connections(self) -> None:
        """Stop taking requests: close every idle connection now; a
        busy one closes after the reply it is sending, and an SSE
        stream after the frame it is writing (its watcher sees the
        stream end without a ``done`` frame)."""
        self._closing = True
        for writer in list(self._idle):
            writer.close()
        for queue in list(self._streams):
            try:
                queue.put_nowait(None)  # wakes a stream awaiting a frame
            except asyncio.QueueFull:
                pass  # its next get() returns at once; it checks _closing

    @staticmethod
    def route_template(method: str, parts: List[str]) -> str:
        """Collapse a request path onto its route template.

        Digest and run-id segments are replaced by placeholders so the
        per-route latency histograms stay bounded-cardinality no matter
        how many distinct jobs the service answers.
        """
        if parts[:2] == ["api", "jobs"] and len(parts) >= 3:
            tail = f"/{parts[3]}" if len(parts) > 3 else ""
            return "/api/jobs/{digest}" + tail
        if parts[:2] == ["api", "runs"] and len(parts) >= 3:
            tail = f"/{parts[3]}" if len(parts) > 3 else ""
            return "/api/runs/{id}" + tail
        return "/" + "/".join(parts) if parts else "/"

    async def _timed_dispatch(
        self, request: Request, writer
    ) -> Optional[Response]:
        """Dispatch wrapped in request/error counters and a latency
        histogram, labelled by route template and method."""
        parts = [p for p in request.path.split("/") if p]
        route = self.route_template(request.method, parts)
        self.metrics.counter(
            "service.requests", route=route, method=request.method
        ).inc()
        start = time.perf_counter()
        try:
            return await self.dispatch(request, writer)
        except HttpError as exc:
            self.metrics.counter(
                "service.errors", route=route, status=str(exc.status)
            ).inc()
            raise
        except Exception:
            self.metrics.counter(
                "service.errors", route=route, status="500"
            ).inc()
            raise
        finally:
            self.metrics.histogram(
                "service.request_seconds", route=route
            ).observe(time.perf_counter() - start)

    async def dispatch(self, request: Request, writer) -> Optional[Response]:
        """The reply to ``request``; None once an SSE route has streamed
        its own."""
        parts = [p for p in request.path.split("/") if p]
        method = request.method

        if parts == ["metrics"] and method == "GET":
            return self._metrics()
        if parts == ["api", "status"] and method == "GET":
            return self._status()
        if parts == ["healthz"] and method == "GET":
            return json_response(200, {
                "ok": True, **self.manager.stats(),
            })
        if parts == ["dashboard"] and method == "GET":
            return self._dashboard()
        if parts == ["api", "jobs"]:
            if method == "GET":
                return self._jobs_index()
            if method == "POST":
                return self._submit(request)
            raise HttpError(405, f"{method} not allowed on /api/jobs")
        if len(parts) >= 3 and parts[:2] == ["api", "jobs"]:
            digest = parts[2]
            tail = parts[3:]
            if not tail:
                if method == "GET":
                    return self._job_status(digest)
                if method == "DELETE":
                    return self._cancel(digest)
                raise HttpError(405, f"{method} not allowed on a job")
            if tail == ["result"] and method == "GET":
                return self._result(digest)
            if tail == ["events"] and method == "GET":
                return await self._events(writer, digest)
            if tail == ["provenance"] and method == "GET":
                return self._provenance(digest)
        if parts == ["api", "runs"] and method == "GET":
            return self._runs_index(request)
        if len(parts) == 3 and parts[:2] == ["api", "runs"] and method == "GET":
            return self._run_row(parts[2])
        if (
            len(parts) == 4
            and parts[:2] == ["api", "runs"]
            and parts[3] == "anatomy"
            and method == "GET"
        ):
            return self._run_anatomy(parts[2])
        raise HttpError(404, f"no route for {method} {request.path}")

    # ------------------------------------------------------------------
    # job routes
    # ------------------------------------------------------------------
    def _submit(self, request: Request) -> Response:
        from ..config.specio import SpecIngestError, specs_from_json

        payload = request.json()
        try:
            specs = specs_from_json(payload)
        except SpecIngestError as exc:
            raise HttpError(
                400, "invalid spec payload", detail=exc.errors
            )
        client = request.headers.get("x-repro-client", "anonymous")
        try:
            jobs = self.manager.submit_many(specs, client)
        except SubmitRejected as exc:
            raise HttpError(
                429, str(exc),
                headers={"Retry-After": str(int(exc.retry_after + 0.5))},
            )
        body = {
            "client": client,
            "jobs": [job.status_payload() for job in jobs],
        }
        status = 200 if all(not job.active() for job in jobs) else 202
        return json_response(status, body)

    def _jobs_index(self) -> Response:
        return json_response(200, {
            "stats": self.manager.stats(),
            "jobs": [
                job.status_payload() for job in self.manager.jobs.values()
            ],
        })

    def _job(self, digest: str):
        try:
            return self.manager._require(digest)
        except KeyError:
            raise HttpError(404, f"no job with digest {digest}")

    def _job_status(self, digest: str) -> Response:
        return json_response(200, self._job(digest).status_payload())

    def _cancel(self, digest: str) -> Response:
        job = self.manager.cancel(self._job(digest).digest)
        return json_response(202, job.status_payload())

    def _result(self, digest: str) -> Response:
        job = self._job(digest)
        if job.record is None:
            raise HttpError(
                409,
                f"job {digest} is {job.state}; result not available yet",
            )
        return json_response(200, record_payload(job.record))

    def _provenance(self, digest: str) -> Response:
        job = self._job(digest)
        if job.record is None:
            raise HttpError(
                409,
                f"job {digest} is {job.state}; result not available yet",
            )
        if not job.record.spans:
            raise HttpError(
                404,
                f"job {digest} carries no spans; submit with "
                '"spans": true to enable provenance',
            )
        from ..analysis.report import provenance_report

        root_id = None
        if job.record.measurement is not None:
            root_id = job.record.measurement.extra.get("event_root_span")
        text = provenance_report(job.record.spans, root_id=root_id)
        return Response(
            200, text.encode("utf-8"), "text/plain; charset=utf-8"
        )

    async def _events(self, writer, digest: str) -> None:
        """Stream a job's progress as SSE until its ``done`` frame, or
        until the server closes; the connection closes after it (the
        head says ``Connection: close``).

        A vanished client surfaces as a ConnectionError on drain; the
        subscription is dropped and the job runs on unaffected.
        """
        job = self._job(digest)
        queue = self.manager.subscribe(digest)
        self._streams.add(queue)
        writer.write(sse_headers())
        try:
            while not self._closing:
                try:
                    payload = await asyncio.wait_for(
                        queue.get(), timeout=SSE_HEARTBEAT
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    continue
                if payload is None:
                    return  # close_connections: the server is closing
                name = payload.get("event", "message")
                writer.write(sse_frame(name, payload))
                await writer.drain()
                if name == "done":
                    return
        finally:
            self._streams.discard(queue)
            self.manager.unsubscribe(digest, queue)

    # ------------------------------------------------------------------
    # obs routes
    # ------------------------------------------------------------------
    def _metrics(self) -> Response:
        """Prometheus text exposition of the service's operational state.

        Request counters and latency histograms accumulate in
        ``self.metrics``; queue/SSE/cache readings are sampled from the
        manager at scrape time as gauges.  Everything is prefixed
        ``repro_`` on the wire.
        """
        from ..obs.runtime import CONTENT_TYPE, render_prometheus

        telemetry = self.manager.telemetry()
        gauge = self.metrics.gauge
        gauge("service.queue_depth").set(telemetry["queued"])
        gauge("service.jobs_in_flight").set(telemetry["in_flight"])
        gauge("service.jobs_tracked").set(telemetry["jobs"])
        gauge("service.sse_subscribers").set(telemetry["subscribers"])
        gauge("service.sse_dropped_frames").set(telemetry["dropped_frames"])
        gauge("service.rejected", reason="quota").set(
            telemetry["rejected_quota"]
        )
        gauge("service.rejected", reason="queue").set(
            telemetry["rejected_queue"]
        )
        gauge("service.uptime_seconds").set(
            time.monotonic() - self._started_monotonic
        )
        if self.manager.cache is not None:
            stats = self.manager.cache.stats()
            gauge("service.cache_entries").set(stats.entries)
            gauge("service.cache_bytes").set(stats.total_bytes)
            gauge("service.cache_lookups", outcome="hit").set(stats.hits)
            gauge("service.cache_lookups", outcome="miss").set(stats.misses)
            gauge("service.cache_hit_ratio").set(stats.hit_rate)
        body = render_prometheus(self.metrics.snapshot(), prefix="repro_")
        return Response(200, body.encode("utf-8"), CONTENT_TYPE)

    def _status(self) -> Response:
        """Consolidated health: liveness, readiness, and drop counters.

        Liveness is implicit (a reply at all means the loop is alive);
        readiness is distinct — workers running and queue below
        capacity — and a not-ready reply is a 503 so load balancers and
        the CI smoke harness can gate on the status code alone.
        """
        telemetry = self.manager.telemetry()
        reasons = []
        if not self.manager.workers_started:
            reasons.append("workers not started")
        if telemetry["queued"] >= self.config.max_queue:
            reasons.append("queue at capacity")
        payload: Dict[str, Any] = {
            "live": True,
            "ready": not reasons,
            "reasons": reasons,
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "stats": self.manager.stats(),
            "telemetry": telemetry,
        }
        if self.manager.cache is not None:
            stats = self.manager.cache.stats()
            payload["cache"] = {
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": round(stats.hit_rate, 4),
            }
        return json_response(200 if not reasons else 503, payload)

    def _open_registry(self):
        import os

        path = self.config.registry_path
        if not path or not os.path.exists(path):
            raise HttpError(
                404,
                "no run registry recorded yet (complete a job first)",
            )
        from ..obs.registry import RunRegistry

        return RunRegistry(path, git_rev=self.manager._git_rev)

    def _dashboard(self) -> Response:
        from ..obs.dashboard import render_dashboard

        with self._open_registry() as registry:
            html = render_dashboard(registry)
        return Response(200, html.encode("utf-8"), "text/html; charset=utf-8")

    def _runs_index(self, request: Request) -> Response:
        limit = request.query_int("limit", 50)
        digest = None
        if request.query.get("digest"):
            digest = request.query["digest"][-1]
        with self._open_registry() as registry:
            rows = registry.runs(
                digest=digest, limit=limit, newest_first=True
            )
        from dataclasses import asdict

        return json_response(200, {"runs": [asdict(row) for row in rows]})

    def _recorded_run(self, run_id: str):
        """The registry row ``run_id`` names (400 unless an integer,
        404 when no such run was recorded)."""
        try:
            wanted = int(run_id)
        except ValueError:
            raise HttpError(400, f"run id must be an integer, got {run_id!r}")
        with self._open_registry() as registry:
            row = registry.run(wanted)
        if row is None:
            raise HttpError(404, f"no recorded run {wanted}")
        return row

    def _run_row(self, run_id: str) -> Response:
        from dataclasses import asdict

        return json_response(200, asdict(self._recorded_run(run_id)))

    def _run_anatomy(self, run_id: str) -> Response:
        """Critical-path delay attribution of one recorded run.

        Served from the stored ``anatomy`` column (the registry derives
        it from the spans whenever a spans-carrying record is recorded).
        Rows recorded before schema 3 — or without spans — have nothing
        to attribute and answer 404.
        """
        row = self._recorded_run(run_id)
        if row.anatomy is None:
            raise HttpError(
                404,
                f"run {row.run_id} carries no anatomy; record it with "
                "spans enabled to attribute its convergence delay",
            )
        return json_response(
            200, {"run_id": row.run_id, "anatomy": row.anatomy}
        )


class ServiceServer:
    """The listening socket of one :class:`ServiceApp`.

    ``close()`` stops listening *and* closes the app's idle persistent
    connections and open SSE streams.  From Python 3.12.1 on,
    ``asyncio.Server.wait_closed()`` waits for every open connection, so
    a client merely holding one would otherwise keep shutdown waiting
    for :data:`IDLE_CLOSE_S`, and a watcher for its job's ``done``.
    """

    def __init__(self, server: asyncio.AbstractServer, app: ServiceApp):
        self._server = server
        self._app = app

    @property
    def sockets(self):
        return self._server.sockets

    def close(self) -> None:
        self._server.close()
        self._app.close_connections()

    async def wait_closed(self) -> None:
        await self._server.wait_closed()

    async def __aenter__(self) -> "ServiceServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
        await self.wait_closed()


async def start_service(
    config: ServiceConfig,
    *,
    announce: Optional[Callable[[str, int], None]] = None,
):
    """Start the server; returns ``(server, app)``, ``server`` a
    :class:`ServiceServer`.

    ``announce(host, port)`` is called with the *bound* address — with
    ``port=0`` that is the ephemeral port the OS picked, which is what
    the smoke harness parses from stdout.
    """
    app = ServiceApp(config)
    # A host name is resolved here, blocking, and handed to asyncio as
    # numeric addresses: asyncio resolves a name in a thread of its own,
    # and the trial workers must be forked from a process with one
    # thread.  A numeric host skips getaddrinfo, which would cost the
    # server about 0.2 MiB of resident memory.
    hosts = config.host
    try:
        socket.inet_pton(
            socket.AF_INET6 if ":" in hosts else socket.AF_INET, hosts
        )
    except OSError:
        hosts = list(dict.fromkeys(
            info[4][0] for info in socket.getaddrinfo(
                hosts or None, config.port,
                type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE,
            )
        ))
    server = ServiceServer(
        await asyncio.start_server(app.handle_connection, hosts, config.port),
        app,
    )
    app.manager.start()
    host, port = server.sockets[0].getsockname()[:2]
    if announce is not None:
        announce(host, port)
    return server, app


def run_service(
    config: ServiceConfig,
    *,
    announce: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Blocking entry point (the ``repro serve`` command)."""

    async def main() -> None:
        server, app = await start_service(config, announce=announce)
        # Ctrl-C cancels the wait below; SIGTERM ends it.  Either way
        # the shutdown kills the worker processes.
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, stop.set
        )
        try:
            async with server:
                await stop.wait()
        finally:
            await app.manager.aclose()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
