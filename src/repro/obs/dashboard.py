"""Static HTML dashboard over the run registry.

``repro runs dashboard`` renders one self-contained HTML file — inline
CSS, inline SVG (via :mod:`repro.analysis.viz`), no JavaScript, no
external assets — summarizing the registry's longitudinal record:

- overview tiles (runs, sweeps, digests, failures, latest revision);
- convergence-vs-SDN-fraction curves per scenario, one series per
  historical sweep, so the paper's Fig. 2 trend is comparable across
  code revisions at a glance;
- per-sweep trends of trial wall time and update counts;
- cache hit rates and wall-time phase breakdowns per sweep;
- per-run resource accounting and wall time by layer (Ops).

Output is deterministic for a registry recorded with an injected clock
and git revision, which is how the golden test pins it.
"""

from __future__ import annotations

import statistics
from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.viz import svg_bar_chart, svg_line_chart
from .anatomy import ANATOMY_CATEGORIES
from .registry import RunRegistry, RunRow, SweepRow

__all__ = ["render_dashboard"]

_CSS = """
body { font-family: sans-serif; margin: 24px auto; max-width: 980px;
       color: #222; }
h1 { font-size: 22px; } h2 { font-size: 17px; margin-top: 28px;
     border-bottom: 1px solid #ccc; padding-bottom: 4px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { border: 1px solid #ddd; border-radius: 6px; padding: 10px 16px;
        min-width: 90px; background: #fafafa; }
.tile .v { font-size: 20px; font-weight: bold; }
.tile .k { font-size: 11px; color: #666; text-transform: uppercase; }
table { border-collapse: collapse; font-size: 12px; margin-top: 8px; }
th, td { border: 1px solid #ddd; padding: 3px 8px; text-align: right; }
th { background: #f0f0f0; } td.l, th.l { text-align: left; }
.chart { margin: 12px 0; }
footer { margin-top: 32px; font-size: 11px; color: #888; }
"""


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _convergence_time(run: RunRow) -> Optional[float]:
    m = run.measurement or {}
    if "t_converged" in m and "t_event" in m:
        return m["t_converged"] - m["t_event"]
    return None


def _sweep_label(sweep: SweepRow) -> str:
    rev = f" @{sweep.git_rev}" if sweep.git_rev else ""
    return f"#{sweep.sweep_id} {sweep.recorded_at}{rev}"


def _tile(value, key: str) -> str:
    return (
        f'<div class="tile"><div class="v">{escape(str(value))}</div>'
        f'<div class="k">{escape(key)}</div></div>'
    )


def _convergence_section(
    registry: RunRegistry, sweeps: List[SweepRow]
) -> List[str]:
    """One convergence-vs-fraction chart per scenario, a series per sweep."""
    out: List[str] = []
    scenarios = sorted({s.scenario for s in sweeps if s.scenario})
    for scenario in scenarios:
        series: List[Tuple[str, List[Tuple[float, float]]]] = []
        for sweep in [s for s in sweeps if s.scenario == scenario]:
            by_fraction: Dict[float, List[float]] = {}
            for run in registry.runs(sweep_id=sweep.sweep_id, ok=True):
                conv = _convergence_time(run)
                if conv is None or run.fraction is None:
                    continue
                by_fraction.setdefault(run.fraction, []).append(conv)
            points = [
                (fraction, _median(times))
                for fraction, times in sorted(by_fraction.items())
            ]
            if points:
                series.append((_sweep_label(sweep), points))
        if series:
            out.append(f"<h2>Convergence vs SDN fraction — {escape(scenario)}</h2>")
            out.append(
                '<div class="chart">'
                + svg_line_chart(
                    series,
                    title=f"{scenario}: median convergence time",
                    x_label="SDN fraction",
                    y_label="median convergence (s)",
                )
                + "</div>"
            )
    return out


def _anatomy_section(
    registry: RunRegistry, sweeps: List[SweepRow]
) -> List[str]:
    """Per-category delay attribution vs SDN fraction, per scenario.

    Aggregates the critical-path waterfalls recorded with each run
    (schema-3 ``anatomy`` column) over the newest recorded sweep of
    each scenario: one series per delay category, so the chart answers
    *which* category centralization removes as the fraction grows.
    """
    out: List[str] = []
    scenarios = sorted({s.scenario for s in sweeps if s.scenario})
    for scenario in scenarios:
        # newest sweep of the scenario that carries any anatomy
        chosen: Dict[float, List[Dict]] = {}
        for sweep in reversed([s for s in sweeps if s.scenario == scenario]):
            by_fraction: Dict[float, List[Dict]] = {}
            for run in registry.runs(sweep_id=sweep.sweep_id, ok=True):
                if run.anatomy is None or run.fraction is None:
                    continue
                by_fraction.setdefault(run.fraction, []).append(run.anatomy)
            if by_fraction:
                chosen = by_fraction
                break
        if not chosen:
            continue
        series: List[Tuple[str, List[Tuple[float, float]]]] = []
        for category in ANATOMY_CATEGORIES:
            points = [
                (
                    fraction,
                    _median([
                        float((p.get("categories") or {}).get(category, 0.0))
                        for p in payloads
                    ]),
                )
                for fraction, payloads in sorted(chosen.items())
            ]
            series.append((category, points))
        out.append(
            f"<h2>Convergence anatomy vs SDN fraction — {escape(scenario)}"
            "</h2>"
        )
        out.append(
            '<div class="chart">'
            + svg_line_chart(
                series,
                title=f"{scenario}: median critical-path delay by category",
                x_label="SDN fraction",
                y_label="median delay (s)",
            )
            + "</div>"
        )
    return out


def _trend_section(
    registry: RunRegistry, sweeps: List[SweepRow]
) -> List[str]:
    """Per-sweep medians of trial wall time and update counts."""
    wall_points: List[Tuple[float, float]] = []
    update_points: List[Tuple[float, float]] = []
    for sweep in sweeps:
        runs = [
            r for r in registry.runs(sweep_id=sweep.sweep_id, ok=True)
            if not r.cached
        ]
        if runs:
            wall_points.append(
                (sweep.sweep_id, _median([r.wall_time for r in runs]))
            )
        counted = [
            (r.measurement or {}).get("updates_tx")
            for r in registry.runs(sweep_id=sweep.sweep_id, ok=True)
        ]
        counted = [c for c in counted if c is not None]
        if counted:
            update_points.append((sweep.sweep_id, _median(counted)))
    out: List[str] = []
    if wall_points or update_points:
        out.append("<h2>Metrics trends across sweeps</h2>")
    if wall_points:
        out.append(
            '<div class="chart">'
            + svg_line_chart(
                [("median trial wall", wall_points)],
                title="Median executed-trial wall time per sweep",
                x_label="sweep id", y_label="seconds",
            )
            + "</div>"
        )
    if update_points:
        out.append(
            '<div class="chart">'
            + svg_line_chart(
                [("median updates_tx", update_points)],
                title="Median per-run BGP updates per sweep (deterministic)",
                x_label="sweep id", y_label="updates",
            )
            + "</div>"
        )
    return out


def _cache_section(sweeps: List[SweepRow]) -> List[str]:
    bars = []
    for sweep in sweeps:
        hits = sweep.cache_hits or 0
        misses = sweep.cache_misses or 0
        if hits + misses:
            bars.append((f"#{sweep.sweep_id}", round(hits / (hits + misses), 4)))
    if not bars:
        return []
    return [
        "<h2>Result-cache hit rate per sweep</h2>",
        '<div class="chart">'
        + svg_bar_chart(
            bars, title="Cache hit rate (1.0 = fully warm)",
            y_label="hit rate",
        )
        + "</div>",
    ]


def _phase_section(sweeps: List[SweepRow]) -> List[str]:
    """Wall-time breakdown of the most recent timed sweep + a table."""
    timed = [s for s in sweeps if s.elapsed is not None]
    if not timed:
        return []
    out = ["<h2>Wall-time breakdown per sweep</h2>"]
    latest = timed[-1]
    workers = latest.workers or 1
    job_wall = latest.total_job_wall or 0.0
    overhead = max((latest.elapsed or 0.0) - job_wall / workers, 0.0)
    out.append(
        '<div class="chart">'
        + svg_bar_chart(
            [
                ("trial execution", round(job_wall, 4)),
                ("slowest trial", round(latest.max_job_wall or 0.0, 4)),
                ("sweep elapsed", round(latest.elapsed or 0.0, 4)),
                ("orchestration", round(overhead, 4)),
            ],
            title=f"Sweep {_sweep_label(latest)} — seconds by phase "
                  f"({workers} worker(s))",
            y_label="seconds",
        )
        + "</div>"
    )
    rows = [
        "<table><tr><th class=l>sweep</th><th class=l>scenario</th>"
        "<th>jobs</th><th>cached</th><th>failed</th><th>elapsed s</th>"
        "<th>job wall s</th><th>max job s</th><th>workers</th>"
        "<th>speedup</th></tr>"
    ]
    for sweep in timed:
        speedup = (
            (sweep.total_job_wall or 0.0) / sweep.elapsed
            if sweep.elapsed else 0.0
        )
        rows.append(
            f"<tr><td class=l>{escape(_sweep_label(sweep))}</td>"
            f"<td class=l>{escape(sweep.scenario)}</td>"
            f"<td>{sweep.jobs}</td><td>{sweep.cached}</td>"
            f"<td>{sweep.failed}</td><td>{sweep.elapsed:.3f}</td>"
            f"<td>{(sweep.total_job_wall or 0.0):.3f}</td>"
            f"<td>{(sweep.max_job_wall or 0.0):.3f}</td>"
            f"<td>{sweep.workers}</td><td>{speedup:.2f}x</td></tr>"
        )
    rows.append("</table>")
    out.extend(rows)
    return out


def _ops_section(registry: RunRegistry) -> List[str]:
    """Resource accounting per run, and wall time by layer summed over
    the runs that carry the split (metrics-on trials)."""
    runs = registry.runs(ok=True)
    accounted = [r for r in runs if r.resources]
    if not accounted:
        if not runs:
            return []
        # Runs exist but none carry resources — rows recorded before
        # the schema-2 telemetry columns.  Say so instead of silently
        # omitting the section.
        return [
            "<h2>Ops — per-run resource accounting</h2>",
            f"<p>No resource accounting recorded for the {len(runs)} "
            "successful run(s) — recorded before schema 2 (re-run to "
            "populate).</p>",
        ]
    out = [
        "<h2>Ops — per-run resource accounting</h2>",
        "<table><tr><th class=l>run</th><th class=l>label</th>"
        "<th>cpu user s</th><th>cpu sys s</th><th>peak RSS KB</th>"
        "<th>gc pause s</th><th>events/s</th></tr>",
    ]
    layers: Dict[str, float] = {}
    split_runs = 0
    for run in accounted:
        res = run.resources or {}

        def cell(key: str, fmt: str) -> str:
            value = res.get(key)
            return format(value, fmt) if value is not None else "—"

        out.append(
            f"<tr><td class=l>#{run.run_id}</td>"
            f"<td class=l>{escape(run.label)}</td>"
            f"<td>{cell('cpu_user_s', '.3f')}</td>"
            f"<td>{cell('cpu_sys_s', '.3f')}</td>"
            f"<td>{cell('max_rss_kb', '.0f')}</td>"
            f"<td>{cell('gc_pause_s', '.4f')}</td>"
            f"<td>{cell('events_per_s', '.1f')}</td></tr>"
        )
        split = res.get("wall_by_layer_s")
        if split:
            split_runs += 1
            for layer, seconds in split.items():
                layers[layer] = layers.get(layer, 0.0) + seconds
    out.append("</table>")
    if layers:
        wall = sum(layers.values())
        out.append(
            f"<h2>Ops — wall time by layer ({split_runs} run(s))</h2>"
        )
        out.append(
            "<table><tr><th class=l>layer</th><th>seconds</th>"
            "<th>share</th></tr>"
        )
        for layer, seconds in sorted(
            layers.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = seconds / wall if wall else 0.0
            out.append(
                f"<tr><td class=l>{escape(layer)}</td>"
                f"<td>{seconds:.4f}</td><td>{share:.1%}</td></tr>"
            )
        out.append("</table>")
    return out


def render_dashboard(
    registry: RunRegistry,
    *,
    title: str = "repro telemetry",
    last_sweeps: int = 20,
    generated_at: Optional[str] = None,
) -> str:
    """Render the registry as one self-contained HTML page.

    ``generated_at`` defaults to the registry's clock (inject a fixed
    clock for deterministic output).
    """
    counts = registry.counts()
    sweeps = registry.sweeps(limit=last_sweeps, newest_first=True)
    sweeps.reverse()  # oldest -> newest for time-ordered charts
    stamp = generated_at if generated_at is not None else registry.clock()

    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        '<div class="tiles">',
        _tile(counts["runs"], "runs"),
        _tile(counts["ok"], "ok"),
        _tile(counts["failed"], "failed"),
        _tile(counts["sweeps"], "sweeps"),
        _tile(counts["digests"], "spec digests"),
        _tile(registry.git_rev or "—", "git rev"),
        _tile(registry.code_version, "code version"),
        "</div>",
    ]
    parts.extend(_convergence_section(registry, sweeps))
    parts.extend(_anatomy_section(registry, sweeps))
    parts.extend(_trend_section(registry, sweeps))
    parts.extend(_cache_section(sweeps))
    parts.extend(_phase_section(sweeps))
    parts.extend(_ops_section(registry))
    parts.append(
        f"<footer>generated {escape(stamp)} · registry "
        f"{escape(registry.path)} · repro {escape(registry.code_version)}"
        "</footer></body></html>"
    )
    return "\n".join(parts)
