"""repro.service — emulation-as-a-service over the sweep runner.

A stdlib-only asyncio control plane: clients POST RunSpec/sweep-grid
JSON, the service canonicalizes it to the existing content digest,
dedups against the result cache, queues it under per-client quotas
with explicit 429/Retry-After backpressure, executes each trial in a
pool of worker processes, streams live progress as Server-Sent
Events, and records every completed run into the telemetry registry
it also serves back as the HTML dashboard.  See ``docs/service.md``.
"""

from .app import (
    ServiceApp,
    ServiceConfig,
    record_payload,
    run_service,
    start_service,
)
from .client import ServiceClient, ServiceClientError
from .http import HttpError, Request
from .manager import Job, JobManager, QueueFull, QuotaExceeded, SubmitRejected

__all__ = [
    "ServiceApp",
    "ServiceConfig",
    "record_payload",
    "run_service",
    "start_service",
    "ServiceClient",
    "ServiceClientError",
    "HttpError",
    "Request",
    "Job",
    "JobManager",
    "QueueFull",
    "QuotaExceeded",
    "SubmitRejected",
]
