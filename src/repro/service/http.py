"""Minimal HTTP/1.1 plumbing for the service (stdlib asyncio only).

Just enough protocol for a control plane: request-line + header
parsing with hard size limits, ``Content-Length`` bodies, JSON helpers,
and Server-Sent-Events framing.

Connections are persistent: an HTTP/1.1 client may send request after
request on one socket.  Opening and closing a TCP connection per
request cost about half of a cached submit → result round trip on
loopback (1.12 ms against 0.58 ms at the median on a 2-vCPU host, see
``docs/service.md``), so the server keeps the connection unless the
request asks otherwise or its framing can no longer be trusted.  A
request body is framed by ``Content-Length`` only: any
``Transfer-Encoding`` is refused (``501``), and so are differing
duplicate ``Content-Length`` headers (``400``), since on a kept-alive
connection an unread body would be parsed as the next request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "read_request",
    "response_bytes",
    "error_response",
    "json_response",
    "sse_headers",
    "sse_frame",
    "STATUS_PHRASES",
]

#: request line + headers may not exceed this many bytes.
MAX_HEADER_BYTES = 32 * 1024
#: request bodies may not exceed this many bytes (grids are small JSON).
MAX_BODY_BYTES = 1024 * 1024

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request problem that maps directly onto an HTTP error reply."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
        detail: Optional[Any] = None,
    ) -> None:
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.detail = detail
        super().__init__(f"{status}: {message}")


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, list] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: False when the client asked to close after this exchange
    #: (HTTP/1.0, or a ``Connection: close`` header).
    keep_alive: bool = True

    def json(self) -> Any:
        """The body parsed as JSON (400 on malformed input)."""
        if not self.body:
            raise HttpError(400, "request body is empty; expected JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


async def read_request(reader) -> Optional[Request]:
    """Parse one request off a stream; None on clean EOF before a line."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except Exception as exc:  # IncompleteReadError, LimitOverrunError...
        import asyncio

        if isinstance(exc, asyncio.IncompleteReadError) and not exc.partial:
            return None
        if isinstance(exc, asyncio.LimitOverrunError):
            raise HttpError(431, "request headers too large")
        raise HttpError(400, f"malformed request head: {exc!r}")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, "request headers too large")

    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:
        raise HttpError(400, "request head is not valid latin-1")
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise HttpError(
            501, "Transfer-Encoding is not supported; send a "
            "Content-Length body"
        )

    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = parse_qs(split.query, keep_blank_values=True)

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad Content-Length: {length_text!r}")
        if length < 0:
            raise HttpError(400, f"bad Content-Length: {length}")
        if length > MAX_BODY_BYTES:
            raise HttpError(
                413, f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as exc:
                raise HttpError(400, f"truncated request body: {exc!r}")

    connection = headers.get("connection", "").lower()
    keep_alive = version != "HTTP/1.0" and "close" not in connection
    return Request(
        method=method.upper(), path=path, query=query,
        headers=headers, body=body, keep_alive=keep_alive,
    )


class Response(NamedTuple):
    """One complete reply; the connection that sends it decides its
    ``Connection`` header (see :func:`response_bytes`)."""

    status: int
    body: bytes
    content_type: str = JSON_CONTENT_TYPE
    headers: Optional[Dict[str, str]] = None

    def encode(self, *, close: bool = False) -> bytes:
        return response_bytes(
            self.status, self.body, content_type=self.content_type,
            headers=self.headers, close=close,
        )


def response_bytes(
    status: int,
    body: bytes,
    *,
    content_type: str = JSON_CONTENT_TYPE,
    headers: Optional[Dict[str, str]] = None,
    close: bool = False,
) -> bytes:
    """Serialize one complete response.

    The connection stays open after it unless ``close`` is set, which
    adds ``Connection: close``.  Reusing the connection is what makes a
    cached round trip cheap: on loopback a fresh connection per request
    cost about 0.4 ms of each submit and of each result fetch (median
    1.14 → 0.70 ms and 0.89 → 0.46 ms on a 2-vCPU host).
    """
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    if close:
        lines.append("Connection: close")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: Any,
    *,
    headers: Optional[Dict[str, str]] = None,
) -> Response:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return Response(status, body, headers=headers)


def sse_headers() -> bytes:
    """The response head opening a Server-Sent-Events stream."""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")


def sse_frame(event: str, payload: Any) -> bytes:
    """One SSE frame: ``event:`` name plus JSON ``data:`` line."""
    data = json.dumps(payload, sort_keys=True)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


def error_response(exc: HttpError) -> Response:
    """The JSON error reply an :class:`HttpError` maps onto."""
    payload: Dict[str, Any] = {"error": exc.message}
    if exc.detail is not None:
        payload["detail"] = exc.detail
    return json_response(exc.status, payload, headers=exc.headers)
