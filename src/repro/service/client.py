"""Blocking client for the service API (stdlib ``http.client`` only).

:class:`ServiceClient` backs the ``repro client`` CLI and the CI smoke
harness: submit a spec/grid payload, poll status, stream SSE progress,
fetch results/dashboards.  Errors come back as
:class:`ServiceClientError` carrying the HTTP status and any
``Retry-After`` hint, so callers can implement polite backoff.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPResponse, RemoteDisconnected
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(Exception):
    """A non-2xx API reply."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after: Optional[float] = None,
        detail: Any = None,
    ) -> None:
        self.status = status
        self.retry_after = retry_after
        self.detail = detail
        super().__init__(f"HTTP {status}: {message}")


#: what a reused connection the server already dropped raises.
_DROPPED = (RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ServiceClient:
    """Talk to one service instance as one named client.

    The client holds one persistent connection and sends every request
    but the SSE stream (:meth:`events`, which gets its own) over it, one
    exchange at a time: a client is not shared between threads.  When
    the server has dropped the connection while it sat idle, the request
    is sent once more on a new one; a request that fails on a fresh
    connection, or times out, is not retried.  Resending ``POST
    /api/jobs`` is safe: the service dedups jobs by digest.
    :meth:`close` (or leaving a ``with`` block) hangs up.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8351,
        *,
        client_id: str = "cli",
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self._conn = HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        """Close the held connection (the next request reopens it)."""
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(
        self, conn: HTTPConnection, method: str, path: str, body: Any
    ) -> HTTPResponse:
        headers = {"X-Repro-Client": self.client_id}
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=encoded, headers=headers)
        return conn.getresponse()

    def _round_trip(
        self, method: str, path: str, body: Any
    ) -> Tuple[HTTPResponse, bytes]:
        """Send on the held connection and read the whole response; a
        failure leaves the connection closed."""
        try:
            response = self._send(self._conn, method, path, body)
            return response, response.read()
        except BaseException:
            self._conn.close()
            raise

    def _exchange(self, method: str, path: str, *, body: Any = None) -> bytes:
        """The body of one reply (:class:`ServiceClientError` on a
        non-2xx)."""
        reused = self._conn.sock is not None
        try:
            response, raw = self._round_trip(method, path, body)
        except _DROPPED:
            if not reused:
                raise
            response, raw = self._round_trip(method, path, body)
        if response.status >= 400:
            raise self._error(response, raw)
        return raw

    def _json(self, method: str, path: str, *, body: Any = None) -> Any:
        raw = self._exchange(method, path, body=body)
        return json.loads(raw.decode("utf-8")) if raw else None

    @staticmethod
    def _error(response, raw: bytes) -> ServiceClientError:
        message, detail = f"{response.reason}", None
        try:
            payload = json.loads(raw.decode("utf-8"))
            message = payload.get("error", message)
            detail = payload.get("detail")
        except Exception:
            pass
        retry_after = None
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                pass
        return ServiceClientError(
            response.status, message, retry_after=retry_after, detail=detail
        )

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def submit(self, payload: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Submit a ``{"spec": ...}`` / ``{"grid": ...}`` payload;
        returns the job status list."""
        return self._json("POST", "/api/jobs", body=payload)["jobs"]

    def status(self, digest: str) -> Dict[str, Any]:
        return self._json("GET", f"/api/jobs/{digest}")

    def result(self, digest: str) -> Dict[str, Any]:
        return self._json("GET", f"/api/jobs/{digest}/result")

    def result_bytes(self, digest: str) -> bytes:
        """The raw (canonical-JSON) result body, byte-exact."""
        return self._exchange("GET", f"/api/jobs/{digest}/result")

    def cancel(self, digest: str) -> Dict[str, Any]:
        return self._json("DELETE", f"/api/jobs/{digest}")

    def jobs(self) -> Dict[str, Any]:
        return self._json("GET", "/api/jobs")

    def runs(
        self, *, digest: Optional[str] = None, limit: int = 50
    ) -> List[Dict[str, Any]]:
        path = f"/api/runs?limit={limit}"
        if digest:
            path += f"&digest={digest}"
        return self._json("GET", path)["runs"]

    def dashboard(self) -> str:
        return self._exchange("GET", "/dashboard").decode("utf-8")

    def provenance(self, digest: str) -> str:
        path = f"/api/jobs/{digest}/provenance"
        return self._exchange("GET", path).decode("utf-8")

    # ------------------------------------------------------------------
    def watch(
        self,
        digest: str,
        *,
        timeout: float = 300.0,
        on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Stream a job's SSE events until its ``done`` frame.

        Returns the final job status payload; ``on_event(name,
        payload)`` sees every frame (replayed history included).
        """
        final: Optional[Dict[str, Any]] = None
        for name, payload in self.events(digest, timeout=timeout):
            if on_event is not None:
                on_event(name, payload)
            if name == "done":
                final = payload.get("job", payload)
                break
        if final is None:
            raise ServiceClientError(
                408, f"SSE stream for {digest} ended without a done event"
            )
        return final

    def events(
        self, digest: str, *, timeout: float = 300.0
    ) -> Iterator[tuple]:
        """Yield ``(event_name, payload)`` pairs off the SSE stream.

        The stream runs on a connection of its own, closed when the
        stream ends."""
        conn = HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            response = self._send(
                conn, "GET", f"/api/jobs/{digest}/events", None
            )
            if response.status >= 400:
                raise self._error(response, response.read())
            name, data_lines = "message", []
            while True:
                line = response.readline()
                if not line:
                    return  # server closed the stream
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith(":"):
                    continue  # keep-alive comment
                if text.startswith("event:"):
                    name = text[len("event:"):].strip()
                elif text.startswith("data:"):
                    data_lines.append(text[len("data:"):].strip())
                elif text == "":
                    if data_lines:
                        payload = json.loads("\n".join(data_lines))
                        yield name, payload
                        if name == "done":
                            return
                    name, data_lines = "message", []
        finally:
            conn.close()
