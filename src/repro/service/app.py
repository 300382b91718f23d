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
import time
from typing import Any, Callable, Dict, List, Optional

from ..config import ServiceConfig
from ..eventsim.metrics import MetricsRegistry
from ..runner.cache import ResultCache
from ..runner.jobs import RunRecord
from .http import (
    HttpError,
    Request,
    error_payload,
    json_response,
    read_request,
    response_bytes,
    sse_frame,
    sse_headers,
)
from .manager import JobManager, SubmitRejected

__all__ = ["ServiceConfig", "ServiceApp", "start_service", "run_service"]

#: keep-alive comment frame cadence on idle SSE streams (seconds).
SSE_HEARTBEAT = 15.0


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
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self._timed_dispatch(request, writer)
            except HttpError as exc:
                status, payload, headers = error_payload(exc)
                writer.write(json_response(status, payload, headers=headers))
            except Exception as exc:  # pragma: no cover - defensive
                writer.write(
                    json_response(500, {"error": f"internal error: {exc!r}"})
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

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

    async def _timed_dispatch(self, request: Request, writer) -> None:
        """Dispatch wrapped in request/error counters and a latency
        histogram, labelled by route template and method."""
        parts = [p for p in request.path.split("/") if p]
        route = self.route_template(request.method, parts)
        self.metrics.counter(
            "service.requests", route=route, method=request.method
        ).inc()
        start = time.perf_counter()
        try:
            await self.dispatch(request, writer)
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

    async def dispatch(self, request: Request, writer) -> None:
        parts = [p for p in request.path.split("/") if p]
        method = request.method

        if parts == ["metrics"] and method == "GET":
            return self._metrics(writer)
        if parts == ["api", "status"] and method == "GET":
            return self._status(writer)
        if parts == ["healthz"] and method == "GET":
            return self._reply(writer, 200, {
                "ok": True, **self.manager.stats(),
            })
        if parts == ["dashboard"] and method == "GET":
            return self._dashboard(writer)
        if parts == ["api", "jobs"]:
            if method == "GET":
                return self._jobs_index(writer)
            if method == "POST":
                return self._submit(request, writer)
            raise HttpError(405, f"{method} not allowed on /api/jobs")
        if len(parts) >= 3 and parts[:2] == ["api", "jobs"]:
            digest = parts[2]
            tail = parts[3:]
            if not tail:
                if method == "GET":
                    return self._job_status(writer, digest)
                if method == "DELETE":
                    return self._cancel(writer, digest)
                raise HttpError(405, f"{method} not allowed on a job")
            if tail == ["result"] and method == "GET":
                return self._result(writer, digest)
            if tail == ["events"] and method == "GET":
                return await self._events(writer, digest)
            if tail == ["provenance"] and method == "GET":
                return self._provenance(writer, digest)
        if parts == ["api", "runs"] and method == "GET":
            return self._runs_index(request, writer)
        if len(parts) == 3 and parts[:2] == ["api", "runs"] and method == "GET":
            return self._run_row(writer, parts[2])
        if (
            len(parts) == 4
            and parts[:2] == ["api", "runs"]
            and parts[3] == "anatomy"
            and method == "GET"
        ):
            return self._run_anatomy(writer, parts[2])
        raise HttpError(404, f"no route for {method} {request.path}")

    @staticmethod
    def _reply(writer, status: int, payload: Any, **kw) -> None:
        writer.write(json_response(status, payload, **kw))

    # ------------------------------------------------------------------
    # job routes
    # ------------------------------------------------------------------
    def _submit(self, request: Request, writer) -> None:
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
        self._reply(writer, status, body)

    def _jobs_index(self, writer) -> None:
        self._reply(writer, 200, {
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

    def _job_status(self, writer, digest: str) -> None:
        self._reply(writer, 200, self._job(digest).status_payload())

    def _cancel(self, writer, digest: str) -> None:
        job = self.manager.cancel(self._job(digest).digest)
        self._reply(writer, 202, job.status_payload())

    def _result(self, writer, digest: str) -> None:
        job = self._job(digest)
        if job.record is None:
            raise HttpError(
                409,
                f"job {digest} is {job.state}; result not available yet",
            )
        self._reply(writer, 200, record_payload(job.record))

    def _provenance(self, writer, digest: str) -> None:
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
        writer.write(
            response_bytes(
                200, text.encode("utf-8"),
                content_type="text/plain; charset=utf-8",
            )
        )

    async def _events(self, writer, digest: str) -> None:
        """Stream a job's progress as SSE until its ``done`` frame.

        A vanished client surfaces as a ConnectionError on drain; the
        subscription is dropped and the job runs on unaffected.
        """
        job = self._job(digest)
        queue = self.manager.subscribe(digest)
        writer.write(sse_headers())
        try:
            while True:
                try:
                    payload = await asyncio.wait_for(
                        queue.get(), timeout=SSE_HEARTBEAT
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    continue
                name = payload.get("event", "message")
                writer.write(sse_frame(name, payload))
                await writer.drain()
                if name == "done":
                    return
        finally:
            self.manager.unsubscribe(digest, queue)

    # ------------------------------------------------------------------
    # obs routes
    # ------------------------------------------------------------------
    def _metrics(self, writer) -> None:
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
        from ..bgp.attrs import intern_stats

        for key, value in intern_stats().items():
            gauge(f"intern.{key}").set(value)
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
        writer.write(
            response_bytes(
                200, body.encode("utf-8"), content_type=CONTENT_TYPE
            )
        )

    def _status(self, writer) -> None:
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
        self._reply(writer, 200 if not reasons else 503, payload)

    def _open_registry(self):
        import os

        path = self.config.registry_path
        if not path or not os.path.exists(path):
            raise HttpError(
                404,
                "no run registry recorded yet (complete a job first)",
            )
        from ..obs.registry import RunRegistry

        return RunRegistry(path)

    def _dashboard(self, writer) -> None:
        from ..obs.dashboard import render_dashboard

        with self._open_registry() as registry:
            html = render_dashboard(registry)
        writer.write(
            response_bytes(
                200, html.encode("utf-8"),
                content_type="text/html; charset=utf-8",
            )
        )

    def _runs_index(self, request: Request, writer) -> None:
        limit = request.query_int("limit", 50)
        digest = None
        if request.query.get("digest"):
            digest = request.query["digest"][-1]
        with self._open_registry() as registry:
            rows = registry.runs(
                digest=digest, limit=limit, newest_first=True
            )
        from dataclasses import asdict

        self._reply(writer, 200, {"runs": [asdict(row) for row in rows]})

    def _run_row(self, writer, run_id: str) -> None:
        try:
            wanted = int(run_id)
        except ValueError:
            raise HttpError(400, f"run id must be an integer, got {run_id!r}")
        with self._open_registry() as registry:
            row = registry.run(wanted)
        if row is None:
            raise HttpError(404, f"no recorded run {wanted}")
        from dataclasses import asdict

        self._reply(writer, 200, asdict(row))

    def _run_anatomy(self, writer, run_id: str) -> None:
        """Critical-path delay attribution of one recorded run.

        Served from the stored ``anatomy`` column (the registry derives
        it from the spans whenever a spans-carrying record is recorded).
        Rows recorded before schema 3 — or without spans — have nothing
        to attribute and answer 404.
        """
        try:
            wanted = int(run_id)
        except ValueError:
            raise HttpError(400, f"run id must be an integer, got {run_id!r}")
        with self._open_registry() as registry:
            row = registry.run(wanted)
        if row is None:
            raise HttpError(404, f"no recorded run {wanted}")
        if row.anatomy is None:
            raise HttpError(
                404,
                f"run {wanted} carries no anatomy; record it with "
                "spans enabled to attribute its convergence delay",
            )
        self._reply(writer, 200, {"run_id": wanted, "anatomy": row.anatomy})


async def start_service(
    config: ServiceConfig,
    *,
    announce: Optional[Callable[[str, int], None]] = None,
):
    """Start the server; returns ``(server, app)``.

    ``announce(host, port)`` is called with the *bound* address — with
    ``port=0`` that is the ephemeral port the OS picked, which is what
    the smoke harness parses from stdout.
    """
    app = ServiceApp(config)
    server = await asyncio.start_server(
        app.handle_connection, config.host, config.port
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
        try:
            async with server:
                await server.serve_forever()
        finally:
            await app.manager.aclose()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
