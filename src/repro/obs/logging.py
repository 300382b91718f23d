"""Structured JSON logging with cross-process correlation ids.

One line per event, JSON object, stable leading keys (``ts``, ``level``,
``component``, ``event``, ``cid``) so a single ``grep`` over the log
destination reconstructs a job's lifecycle across the service process,
the runner, and the worker pool::

    grep '"cid":"a1b2c3d4e5f6"' repro.log

Logging is **off by default** — nothing changes for library users or
tests until the ``REPRO_LOG`` environment variable (or an explicit
:func:`configure` call) names a destination: ``stderr``, ``stdout``, or
a file path (opened append; worker processes inherit the environment so
their lines land in the same file).  Correlation ids are opaque hex
strings: the service mints one per job; the runner writes its progress
events under it (its log is one sink of that stream) and threads
``<cid>/<index>`` into every worker via ``execute_spec(spec, cid=...)``.

See docs/operations.md for the log schema and the correlation-id flow.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Optional, TextIO

__all__ = [
    "LOG_ENV",
    "NULL_LOGGER",
    "StructuredLogger",
    "configure",
    "format_ts",
    "get_logger",
    "log_enabled",
    "new_cid",
]

#: destination env var: "", unset = disabled; "stderr"/"stdout"; else a
#: file path opened for append.
LOG_ENV = "REPRO_LOG"

_LEVELS = ("debug", "info", "warning", "error")


def new_cid() -> str:
    """A fresh 12-hex-char correlation id."""
    return os.urandom(6).hex()


def format_ts(epoch: float) -> str:
    """UTC ISO-8601 with millisecond precision (``Z`` suffix)."""
    stamp = datetime.fromtimestamp(epoch, timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%S.") + f"{stamp.microsecond // 1000:03d}Z"


class StructuredLogger:
    """Writes one JSON object per line to a stream.

    ``bind(**fields)`` returns a child logger sharing the stream and
    lock with the extra fields merged into every line — the idiom for
    attaching a correlation id once instead of at every call site.
    Injectable ``clock`` (epoch seconds) keeps tests byte-deterministic.
    """

    def __init__(
        self,
        stream: TextIO,
        *,
        component: str = "repro",
        clock: Optional[Callable[[], float]] = None,
        fields: Optional[Dict[str, Any]] = None,
        _lock: Optional[threading.Lock] = None,
    ) -> None:
        self.stream = stream
        self.component = component
        self.clock = clock or time.time
        self.fields: Dict[str, Any] = dict(fields or {})
        self._lock = _lock or threading.Lock()

    def bind(self, component: Optional[str] = None, **fields: Any) -> "StructuredLogger":
        """A child logger with ``fields`` merged into every line."""
        merged = dict(self.fields)
        merged.update(fields)
        return StructuredLogger(
            self.stream,
            component=component or self.component,
            clock=self.clock,
            fields=merged,
            _lock=self._lock,
        )

    def log(self, event: str, *, level: str = "info", **fields: Any) -> None:
        """Emit one line; unknown levels are coerced to ``info``."""
        if level not in _LEVELS:
            level = "info"
        payload: Dict[str, Any] = {
            "ts": format_ts(self.clock()),
            "level": level,
            "component": self.component,
            "event": event,
        }
        merged = dict(self.fields)
        merged.update(fields)
        cid = merged.pop("cid", None)
        if cid:
            payload["cid"] = cid
        for key in sorted(merged):
            if merged[key] is not None:
                payload[key] = merged[key]
        line = json.dumps(payload, separators=(",", ":"), default=str)
        with self._lock:
            try:
                self.stream.write(line + "\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass  # a closed/teed-away destination must never kill a run

    # convenience levels -------------------------------------------------
    def debug(self, event: str, **fields: Any) -> None:
        self.log(event, level="debug", **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log(event, level="error", **fields)


class _NullLogger(StructuredLogger):
    """The disabled state: same API, writes nothing, binds to itself."""

    def __init__(self) -> None:  # no stream needed
        super().__init__(stream=None, component="repro")  # type: ignore[arg-type]

    def bind(self, component: Optional[str] = None, **fields: Any) -> "StructuredLogger":
        return self

    def log(self, event: str, *, level: str = "info", **fields: Any) -> None:
        return None


NULL_LOGGER = _NullLogger()

_state_lock = threading.Lock()
_configured = False
_root: StructuredLogger = NULL_LOGGER


def configure(
    target: Optional[str] = None,
    *,
    clock: Optional[Callable[[], float]] = None,
) -> StructuredLogger:
    """Set the process-wide log destination explicitly.

    ``target`` semantics match ``REPRO_LOG``: ``None``/empty disables,
    ``"stderr"``/``"stdout"`` use the standard streams, anything else
    is a file path opened for append.  Returns the root logger (the
    null logger when disabled).
    """
    global _configured, _root
    with _state_lock:
        _configured = True
        if not target:
            _root = NULL_LOGGER
        elif target == "stderr":
            _root = StructuredLogger(sys.stderr, clock=clock)
        elif target == "stdout":
            _root = StructuredLogger(sys.stdout, clock=clock)
        else:
            try:
                stream = open(target, "a", encoding="utf-8")
            except OSError:
                _root = NULL_LOGGER
            else:
                _root = StructuredLogger(stream, clock=clock)
        return _root


def get_logger(component: str = "repro", **fields: Any) -> StructuredLogger:
    """The process logger bound to ``component`` (+ extra fields).

    Lazily configures from ``REPRO_LOG`` on first use; returns the
    no-op null logger when logging is disabled, so call sites never
    need an ``if`` guard.
    """
    if not _configured:
        configure(os.environ.get(LOG_ENV, ""))
    if _root is NULL_LOGGER:
        return NULL_LOGGER
    return _root.bind(component=component, **fields)


def log_enabled() -> bool:
    """Whether structured logging currently has a destination."""
    if not _configured:
        configure(os.environ.get(LOG_ENV, ""))
    return _root is not NULL_LOGGER
