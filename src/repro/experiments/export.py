"""Export sweep results to CSV / JSON.

Benchmarks archive plain-text reports; these helpers give downstream
users machine-readable versions of the same data (one row per run and a
per-point summary), so results plot directly in pandas/gnuplot/R.
"""

from __future__ import annotations

import csv
import io
import json
from typing import List

from ..runner.jobs import RESULT_PAYLOADS
from .common import SweepResult

__all__ = ["sweep_to_csv", "sweep_to_json", "sweep_rows"]


def sweep_rows(result: SweepResult, *, payloads: bool = False) -> List[dict]:
    """One dict per individual run (long/tidy format).

    ``payloads`` attaches every per-run result payload as a
    ``run_<name>`` column (``run_metrics``: the metrics snapshot dict,
    ``run_spans``: the provenance span list, ``run_anatomy``: the
    critical-path delay attribution) — kept out of the CSV path, where
    a nested value would not be a scalar cell.
    """
    rows: List[dict] = []
    for point in result.points:
        for run in point.runs:
            m = run.measurement
            row = {
                "scenario": result.scenario,
                "n_ases": result.n_ases,
                "sdn_count": point.sdn_count,
                "fraction": round(point.fraction, 6),
                "seed": run.seed,
                "convergence_time": m.convergence_time,
                "state_convergence_time": m.state_convergence_time,
                "updates_tx": m.updates_tx,
                "decision_changes": m.decision_changes,
                "fib_changes": m.fib_changes,
                "recomputations": m.recomputations,
                # execution metadata
                "wall_time": round(run.wall_time, 6),
                "worker": run.worker,
                "cached": bool(run.cached),
                "attempts": run.attempts,
            }
            if payloads:
                for name in RESULT_PAYLOADS:
                    row[f"run_{name}"] = getattr(run, name)
            rows.append(row)
    return rows


def sweep_to_csv(result: SweepResult) -> str:
    """Long-format CSV text (header + one row per run)."""
    rows = sweep_rows(result)
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def sweep_to_json(result: SweepResult, *, indent: int = 2) -> str:
    """JSON with per-point boxplot summaries plus the raw runs."""
    fit = result.fit()
    timing = result.timing
    failures = [
        {
            "sdn_count": f.sdn_count,
            "fraction": round(f.fraction, 6),
            "seed": f.seed,
            "attempts": f.attempts,
            "error": f.error,
        }
        for point in result.points
        for f in point.failures
    ]
    payload = {
        "scenario": result.scenario,
        "n_ases": result.n_ases,
        "fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
        },
        "timing": (
            {
                "elapsed": timing.elapsed,
                "jobs": timing.jobs,
                "cached": timing.cached,
                "failed": timing.failed,
                "total_job_wall": timing.total_job_wall,
                "max_job_wall": timing.max_job_wall,
                "mean_job_wall": timing.mean_job_wall,
                "workers": timing.workers,
                "cache_hits": timing.cache_hits,
                "cache_misses": timing.cache_misses,
                "cache_entries": timing.cache_entries,
                "cache_bytes": timing.cache_bytes,
            }
            if timing is not None else None
        ),
        "failures": failures,
        # merged per-run metric snapshots (None without metrics=True);
        # per-run snapshots ride on the "runs" rows via run_metrics.
        "metrics": result.merged_metrics(),
        # per-point aggregated delay attribution (None entries without
        # anatomy=True); per-run payloads ride on "runs" via run_anatomy.
        "anatomy": result.anatomy_by_fraction(),
        "points": [
            {
                "sdn_count": point.sdn_count,
                "fraction": point.fraction,
                "median": point.stats.median,
                "q1": point.stats.q1,
                "q3": point.stats.q3,
                "min": point.stats.minimum,
                "max": point.stats.maximum,
                "median_updates": point.median_updates,
                "times": point.times,
            }
            for point in result.points
        ],
        "runs": sweep_rows(result, payloads=True),
    }
    return json.dumps(payload, indent=indent)
