"""The service's ``/metrics`` page after a fixed request sequence.

Every served route is requested a known number of times, one connection
per request, so the counters, the latency histogram's ``_count`` series
and the scrape-time gauges are exact integers.  Only the timings (the
``_sum`` and ``_bucket`` series, uptime) and the cache's byte count are
left out.
"""

import json

from repro.obs.runtime import parse_prometheus

from .test_http import QUICK_SPEC, raw_request, serve


def request(port, method, path, body=None):
    """One request on its own connection: ``(status code, body bytes)``."""
    head = f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode()
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
    response = raw_request(port, (head + "\r\n").encode() + payload)
    status_line, _, rest = response.partition(b"\r\n")
    return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]


def pinned_sequence(port):
    """Request every served route once or twice, plus an unknown method,
    an unknown path and an unknown job sub-resource."""
    status, reply = request(port, "POST", "/api/jobs", {"spec": QUICK_SPEC})
    assert status == 202
    digest = json.loads(reply)["jobs"][0]["digest"]
    # the SSE stream ends with the job's done frame
    assert request(port, "GET", f"/api/jobs/{digest}/events")[0] == 200
    statuses = [
        request(port, method, path, *body)[0]
        for method, path, *body in [
            ("POST", "/api/jobs", {"spec": QUICK_SPEC}),
            ("POST", "/api/jobs", {"spec": {"scenario": "nope"}}),
            ("GET", "/api/jobs"),
            ("GET", f"/api/jobs/{digest}"),
            ("GET", f"/api/jobs/{digest}/result"),
            ("GET", f"/api/jobs/{digest}/provenance"),
            ("DELETE", f"/api/jobs/{digest}"),
            ("GET", "/api/jobs/0000/result"),
            ("GET", "/api/runs"),
            ("GET", "/api/runs/1"),
            ("GET", "/api/runs/x"),
            ("GET", "/api/runs/1/anatomy"),
            ("GET", "/healthz"),
            ("GET", "/api/status"),
            ("GET", "/dashboard"),
            ("PUT", "/api/jobs"),
            ("GET", "/nope"),
            ("GET", f"/api/jobs/{digest}/zz"),
            ("GET", "/metrics"),
        ]
    ]
    assert statuses == [
        200, 400, 200, 200, 200, 404, 200, 404, 200, 200, 400, 404,
        200, 200, 200, 405, 404, 404, 200,
    ]


#: the requests the sequence makes, by (route, method): PUT is counted
#: as ``other``, ``/nope`` and ``/api/jobs/{digest}/zz`` as ``unmatched``
REQUESTS = {
    ("/api/jobs", "POST"): 3,
    ("/api/jobs", "GET"): 1,
    ("/api/jobs", "other"): 1,
    ("/api/jobs/{digest}", "GET"): 1,
    ("/api/jobs/{digest}", "DELETE"): 1,
    ("/api/jobs/{digest}/events", "GET"): 1,
    ("/api/jobs/{digest}/result", "GET"): 2,
    ("/api/jobs/{digest}/provenance", "GET"): 1,
    ("/api/runs", "GET"): 1,
    ("/api/runs/{id}", "GET"): 2,
    ("/api/runs/{id}/anatomy", "GET"): 1,
    ("/healthz", "GET"): 1,
    ("/api/status", "GET"): 1,
    ("/dashboard", "GET"): 1,
    ("unmatched", "GET"): 2,
    ("/metrics", "GET"): 2,
}

#: the failed requests, by (route, status)
ERRORS = {
    ("/api/jobs", "400"): 1,
    ("/api/jobs", "405"): 1,
    ("/api/jobs/{digest}/provenance", "404"): 1,
    ("/api/jobs/{digest}/result", "404"): 1,
    ("/api/runs/{id}", "400"): 1,
    ("/api/runs/{id}/anatomy", "404"): 1,
    ("unmatched", "404"): 2,
}

GAUGES = {
    "repro_service_queue_depth": 0,
    "repro_service_jobs_in_flight": 0,
    "repro_service_jobs_tracked": 1,
    "repro_service_sse_subscribers": 0,
    "repro_service_sse_dropped_frames": 0,
    'repro_service_rejected{reason="quota"}': 0,
    'repro_service_rejected{reason="queue"}': 0,
    "repro_service_cache_entries": 1,
    'repro_service_cache_lookups{outcome="hit"}': 0,
    'repro_service_cache_lookups{outcome="miss"}': 1,
    "repro_service_cache_hit_ratio": 0,
}


def expected_samples():
    """The pinned samples, keyed as :func:`parse_prometheus` keys them."""
    samples = dict(GAUGES)
    # one connection per request, the final scrape's included
    samples["repro_service_connections_total"] = 22
    by_route = {}
    for (route, method), n in REQUESTS.items():
        samples[
            f'repro_service_requests{{method="{method}",route="{route}"}}'
        ] = n
        by_route[route] = by_route.get(route, 0) + n
    # a scrape counts its own request, but times it after rendering
    by_route["/metrics"] -= 1
    for route, n in by_route.items():
        samples[f'repro_service_request_seconds_count{{route="{route}"}}'] = n
    for (route, status), n in ERRORS.items():
        samples[
            f'repro_service_errors{{route="{route}",status="{status}"}}'
        ] = n
    return samples


def pinned(samples):
    """The samples the pin covers: everything but timings and bytes."""
    return {
        key: value for key, value in samples.items()
        if not key.startswith((
            "repro_service_request_seconds_sum",
            "repro_service_request_seconds_bucket",
            "repro_service_uptime_seconds",
            "repro_service_cache_bytes",
        ))
    }


class TestPinnedExposition:
    def test_fixed_sequence_scrapes_to_the_pinned_samples(self, tmp_path):
        def body(port, app, loop):
            pinned_sequence(port)
            return parse_prometheus(
                request(port, "GET", "/metrics")[1].decode()
            )

        scrape = serve(tmp_path, body)
        assert pinned(scrape.samples) == expected_samples()
        assert scrape.types == {
            "repro_service_cache_bytes": "gauge",
            "repro_service_cache_entries": "gauge",
            "repro_service_cache_hit_ratio": "gauge",
            "repro_service_cache_lookups": "gauge",
            "repro_service_connections_total": "counter",
            "repro_service_errors": "counter",
            "repro_service_jobs_in_flight": "gauge",
            "repro_service_jobs_tracked": "gauge",
            "repro_service_queue_depth": "gauge",
            "repro_service_rejected": "gauge",
            "repro_service_request_seconds": "histogram",
            "repro_service_requests": "counter",
            "repro_service_sse_dropped_frames": "gauge",
            "repro_service_sse_subscribers": "gauge",
            "repro_service_uptime_seconds": "gauge",
        }
        assert scrape.value("repro_service_uptime_seconds") > 0
        assert scrape.value("repro_service_cache_bytes") > 0
        for route, _ in REQUESTS:
            assert scrape.value(
                "repro_service_request_seconds_bucket", route=route,
                le="+Inf",
            ) == scrape.value(
                "repro_service_request_seconds_count", route=route,
            )


class TestBoundedLabels:
    def test_unknown_paths_and_methods_add_no_samples(self, tmp_path):
        """Client input cannot grow ``/metrics``: 200 requests, each with
        a path and a method no route answers, add the ``unmatched`` and
        ``other`` samples once, not one set per request."""
        families = (
            "repro_service_requests",
            "repro_service_errors",
            "repro_service_request_seconds",
        )

        def request_samples(port):
            text = request(port, "GET", "/metrics")[1].decode()
            return sum(
                key.startswith(families)
                for key in parse_prometheus(text).samples
            )

        def body(port, app, loop):
            before = request_samples(port)
            for i in range(200):
                path = f"/nope{i}" if i % 2 else f"/api/jobs/x/zz{i}"
                assert request(port, f"VERB{i}", path)[0] == 404
            return before, request_samples(port)

        before, after = serve(tmp_path, body)
        # requests, errors and the histogram's series for
        # (unmatched, other), plus the scrapes' own
        assert after - before <= 20
