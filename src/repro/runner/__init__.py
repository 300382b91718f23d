"""Parallel sweep orchestration: job matrices, worker pool, cache.

The paper's sweeps are embarrassingly parallel grids of independent
``(topology, sdn_fraction, seed)`` trials.  This package turns them
into declarative :class:`RunSpec` matrices executed by a
:class:`ParallelRunner` — process-parallel, fault-tolerant (bounded
retry of crashed/hung workers), content-addressed result caching, and
pluggable progress reporting — while keeping results bit-identical to
serial execution.  See ``docs/runner.md``.
"""

from .cache import CACHE_SCHEMA, CacheStats, ResultCache, current_code_version
from .jobs import (
    RunRecord,
    RunSpec,
    SpecError,
    callable_token,
    execute_spec,
    fraction_grid,
    run_trial,
    run_trial_full,
)
from .pool import ParallelRunner, default_workers
from .progress import (
    JsonProgress,
    LogProgress,
    ProgressSink,
    SweepTiming,
    TeeProgress,
    record_summary,
    resolve_progress,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "current_code_version",
    "RunRecord",
    "RunSpec",
    "SpecError",
    "callable_token",
    "execute_spec",
    "fraction_grid",
    "run_trial",
    "run_trial_full",
    "ParallelRunner",
    "default_workers",
    "JsonProgress",
    "LogProgress",
    "ProgressSink",
    "SweepTiming",
    "TeeProgress",
    "record_summary",
    "resolve_progress",
]
