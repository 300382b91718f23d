"""The ledger: what ``BENCHMARK.json`` declares, rows in the ROADMAP
schema, and the A/A comparison of two sets of runs.

A ledger row is ``{layer, case, metric, value, unit, n, host, git_rev}``
— ``case`` is the workload, ``layer`` the owning ``repro.<module>`` (or
``end_to_end``), ``n`` the operations behind the value — so a
``BENCH_<n>.json`` snapshot is a copy of ``out/ledger.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json`` with its metric lists indexed by name."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        spec[group] = {metric["name"]: metric for metric in spec[group]}
    return spec


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_rev() -> str:
    """Short HEAD, or ``unknown`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def layer_of(metric: str, group: str) -> tuple:
    """``(layer, short metric name)``: the dotted prefix owns a
    per-layer metric; end-to-end metrics belong to no single layer."""
    if group == "end_to_end" or "." not in metric:
        return group, metric
    layer, _, short = metric.rpartition(".")
    return layer, short


def rows_for(result: Dict[str, Any], group: str, units: Dict[str, Any],
             host: Dict[str, Any], rev: str) -> List[dict]:
    """Ledger rows of one child result (``measure.py``'s JSON line),
    stamped with ``host_info()`` and ``git_rev()``."""
    rows = []
    for name, value in result["metrics"].items():
        layer, short = layer_of(name, group)
        rows.append(
            {
                "layer": layer, "case": result["workload"], "metric": short,
                "value": value, "unit": units[name]["unit"],
                "n": result["ops"], "host": host, "git_rev": rev,
            }
        )
    for name, value in result["counts"].items():
        rows.append(
            {
                "layer": "counts", "case": result["workload"],
                "metric": f"{group}.{name}", "value": value, "unit": "count",
                "n": result["ops"], "host": host, "git_rev": rev,
            }
        )
    return rows


def write_ledger(rows: List[dict], name: str = "ledger.json") -> pathlib.Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(rows, indent=1) + "\n")
    return path


def compare_sets(
    sets: List[Dict[tuple, List[float]]], metrics: Dict[str, Any]
) -> List[dict]:
    """A/A: per (workload, metric), each set's median, the widest
    relative gap between two sets' medians, and the declared bound.

    ``sets[i][(workload, metric)]`` lists set *i*'s values.  Identical
    code ran every set, so a gap beyond the bound means the metric
    cannot be gated at that bound on this host.
    """
    out = []
    for key in sorted(sets[0]):
        workload, metric = key
        medians = [statistics.median(s[key]) for s in sets]
        low, high = min(medians), max(medians)
        gap = (high - low) / low if low > 0 else 0.0
        bound = metrics[metric]["bound"]
        out.append(
            {
                "workload": workload, "metric": metric, "medians": medians,
                "gap": gap, "bound": bound, "ok": gap <= bound,
            }
        )
    return out
