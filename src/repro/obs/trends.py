"""Run diffing and statistical regression detection over the registry.

Two families of checks, both stdlib-only:

- **Diffing** (:func:`diff_runs`, :func:`diff_sweeps`): compare two
  recorded runs — or every digest-matched run pair of two sweeps —
  separating *deterministic* fields (measurement values, update counts,
  per-AS convergence instants: the simulator is virtual-time
  deterministic, so these must match exactly between runs of the same
  spec digest) from *timing* fields (wall-clock readings, which only
  need to agree within a tolerance band).

- **Trend gating** (:func:`detect_regressions`): for every spec digest
  with enough history, compare the newest run's wall time against a
  robust median/MAD envelope of the preceding runs, and flag both
  wall-time inflation and any deterministic drift.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List

from .registry import RunRegistry, RunRow

__all__ = [
    "DETERMINISTIC_MEASUREMENT_FIELDS",
    "RESOURCE_TIMING_FIELDS",
    "FieldDiff",
    "RunDiff",
    "SweepDiff",
    "Regression",
    "diff_runs",
    "diff_sweeps",
    "detect_regressions",
]

#: per-run resource readings (schema-2 registries) that vary with the
#: machine — compared like wall time, within a tolerance band.
RESOURCE_TIMING_FIELDS = ("cpu_user_s", "cpu_sys_s", "max_rss_kb")

#: measurement fields that are pure virtual-time results — bit-equal
#: across reruns of the same spec digest, on any machine.
DETERMINISTIC_MEASUREMENT_FIELDS = (
    "t_event",
    "t_converged",
    "t_settled",
    "t_state_converged",
    "updates_tx",
    "updates_rx",
    "decision_changes",
    "fib_changes",
    "recomputations",
)


@dataclass(frozen=True)
class FieldDiff:
    """One compared field of a run pair."""

    name: str
    a: object
    b: object
    #: ``deterministic`` must match exactly; ``timing`` gets a band.
    kind: str
    ok: bool
    rel_error: float = 0.0


@dataclass
class RunDiff:
    """Outcome of comparing two recorded runs."""

    run_a: int
    run_b: int
    digest_a: str
    digest_b: str
    fields: List[FieldDiff] = field(default_factory=list)

    @property
    def same_digest(self) -> bool:
        return self.digest_a == self.digest_b

    @property
    def deterministic_mismatches(self) -> List[FieldDiff]:
        return [f for f in self.fields if f.kind == "deterministic" and not f.ok]

    @property
    def timing_mismatches(self) -> List[FieldDiff]:
        return [f for f in self.fields if f.kind == "timing" and not f.ok]

    @property
    def ok(self) -> bool:
        """True when every deterministic field matched exactly.

        Timing drift never fails a diff of same-digest runs on its own
        — it is reported, but wall clocks legitimately vary.
        """
        return self.same_digest and not self.deterministic_mismatches


@dataclass
class SweepDiff:
    """Digest-matched comparison of two recorded sweeps."""

    sweep_a: int
    sweep_b: int
    pairs: List[RunDiff] = field(default_factory=list)
    only_in_a: List[str] = field(default_factory=list)
    only_in_b: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.only_in_a and not self.only_in_b
            and all(p.ok for p in self.pairs)
        )


def _deterministic_values(run: RunRow) -> Dict[str, object]:
    out: Dict[str, object] = {}
    measurement = run.measurement or {}
    for name in DETERMINISTIC_MEASUREMENT_FIELDS:
        if name in measurement:
            out[f"measurement.{name}"] = measurement[name]
    if run.instants is not None:
        for node in sorted(run.instants):
            out[f"instant.{node}"] = run.instants[node]
    if run.span_count is not None:
        out["span_count"] = run.span_count
    # deterministic simulator counters from the metrics snapshot
    metrics = run.metrics or {}
    for counter_key in ("counters",):
        table = metrics.get(counter_key)
        if isinstance(table, dict):
            for name in sorted(table):
                value = table[name]
                if isinstance(value, (int, float)):
                    out[f"metrics.{name}"] = value
    return out


def _anatomy_values(anatomy: Dict[str, object]) -> Dict[str, object]:
    """Flatten an anatomy payload into comparable deterministic keys.

    The critical-path waterfall (the headline decomposition of
    ``t_converged - t_event``) plus the identity of the critical AS and
    its causal depth — enough for ``runs diff`` to pinpoint *which*
    delay category a regressed run gained.
    """
    out: Dict[str, object] = {}
    categories = anatomy.get("categories")
    if isinstance(categories, dict):
        for name in sorted(categories):
            out[f"anatomy.{name}"] = categories[name]
    for key in ("critical_node", "critical_depth"):
        if key in anatomy:
            out[f"anatomy.{key}"] = anatomy[key]
    return out


def _resource_timings(resources) -> Dict[str, object]:
    """A row's :data:`RESOURCE_TIMING_FIELDS` plus one
    ``wall_by_layer_s.<layer>`` entry per layer of its split."""
    resources = resources or {}
    out: Dict[str, object] = {
        name: resources.get(name) for name in RESOURCE_TIMING_FIELDS
    }
    for layer, seconds in (resources.get("wall_by_layer_s") or {}).items():
        out[f"wall_by_layer_s.{layer}"] = seconds
    return out


def diff_runs(
    run_a: RunRow,
    run_b: RunRow,
    *,
    timing_tolerance: float = 0.5,
) -> RunDiff:
    """Field-by-field comparison of two recorded runs.

    Deterministic fields must be byte-equal (their JSON round-trips
    through the registry preserve exact values); ``wall_time`` passes
    within ``timing_tolerance`` relative error.
    """
    diff = RunDiff(
        run_a=run_a.run_id, run_b=run_b.run_id,
        digest_a=run_a.spec_digest, digest_b=run_b.spec_digest,
    )
    values_a = _deterministic_values(run_a)
    values_b = _deterministic_values(run_b)
    for name in sorted(set(values_a) | set(values_b)):
        a, b = values_a.get(name), values_b.get(name)
        diff.fields.append(
            FieldDiff(name=name, a=a, b=b, kind="deterministic", ok=a == b)
        )
    # convergence anatomy (schema-3 registries) is derived from
    # simulated timestamps, so it is deterministic — but the column is
    # absent on pre-schema-3 rows and anatomy can legitimately be
    # missing on one side of a digest's history (the flag is
    # digest-neutral), so it is compared only when both rows carry it.
    anatomy_a, anatomy_b = run_a.anatomy, run_b.anatomy
    if anatomy_a is not None and anatomy_b is not None:
        keys_a = _anatomy_values(anatomy_a)
        keys_b = _anatomy_values(anatomy_b)
        for name in sorted(set(keys_a) | set(keys_b)):
            a, b = keys_a.get(name), keys_b.get(name)
            diff.fields.append(
                FieldDiff(
                    name=name, a=a, b=b, kind="deterministic", ok=a == b
                )
            )
    elif anatomy_a is not None or anatomy_b is not None:
        diff.fields.append(
            FieldDiff(
                name="anatomy", a=anatomy_a is not None,
                b=anatomy_b is not None, kind="deterministic", ok=True,
            )
        )

    def timing_field(name: str, a, b) -> None:
        try:
            a_val, b_val = float(a), float(b)
        except (TypeError, ValueError):
            diff.fields.append(
                FieldDiff(name=name, a=a, b=b, kind="timing", ok=a == b)
            )
            return
        scale = max(abs(a_val), abs(b_val))
        rel = abs(a_val - b_val) / scale if scale else 0.0
        diff.fields.append(
            FieldDiff(
                name=name, a=a, b=b,
                kind="timing", ok=rel <= timing_tolerance, rel_error=rel,
            )
        )

    # machine-dependent resource readings (absent on pre-schema-2 rows
    # and telemetry-off runs) are compared only when both sides carry
    # them — a one-sided reading is reported but never a mismatch.  The
    # wall-by-layer split (metrics-on runs) follows the same rule, one
    # row per layer.
    resources_a = _resource_timings(run_a.resources)
    resources_b = _resource_timings(run_b.resources)
    for name in dict.fromkeys([*resources_a, *resources_b]):
        a, b = resources_a.get(name), resources_b.get(name)
        if a is None and b is None:
            continue
        if a is None or b is None:
            diff.fields.append(
                FieldDiff(
                    name=f"resources.{name}", a=a, b=b, kind="timing", ok=True
                )
            )
            continue
        timing_field(f"resources.{name}", a, b)
    timing_field("wall_time", run_a.wall_time, run_b.wall_time)
    return diff


def diff_sweeps(
    registry: RunRegistry,
    sweep_a: int,
    sweep_b: int,
    *,
    timing_tolerance: float = 0.5,
) -> SweepDiff:
    """Pair the runs of two sweeps by spec digest and diff each pair.

    Within a sweep a digest is unique (the grid never repeats a spec),
    so digest-matching recovers the positional pairing regardless of
    execution order.
    """
    runs_a = {r.spec_digest: r for r in registry.runs(sweep_id=sweep_a)}
    runs_b = {r.spec_digest: r for r in registry.runs(sweep_id=sweep_b)}
    out = SweepDiff(sweep_a=sweep_a, sweep_b=sweep_b)
    out.only_in_a = sorted(set(runs_a) - set(runs_b))
    out.only_in_b = sorted(set(runs_b) - set(runs_a))
    for digest in sorted(set(runs_a) & set(runs_b)):
        out.pairs.append(
            diff_runs(
                runs_a[digest], runs_b[digest],
                timing_tolerance=timing_tolerance,
            )
        )
    return out


# ----------------------------------------------------------------------
# trend gating
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One flagged spec digest."""

    spec_digest: str
    label: str
    kind: str  # "wall_time" | "max_rss" | "deterministic"
    latest_run: int
    latest_value: float
    baseline_median: float
    threshold: float
    detail: str = ""

    def describe(self) -> str:
        if self.kind == "wall_time":
            return (
                f"{self.label or self.spec_digest[:12]}: wall time "
                f"{self.latest_value:.3f}s exceeds gate {self.threshold:.3f}s "
                f"(baseline median {self.baseline_median:.3f}s over history)"
            )
        if self.kind == "max_rss":
            return (
                f"{self.label or self.spec_digest[:12]}: peak RSS "
                f"{self.latest_value:.0f} KB exceeds gate "
                f"{self.threshold:.0f} KB "
                f"(baseline median {self.baseline_median:.0f} KB over history)"
            )
        return (
            f"{self.label or self.spec_digest[:12]}: deterministic drift "
            f"in run {self.latest_run}: {self.detail}"
        )


def detect_regressions(
    registry: RunRegistry,
    *,
    last: int = 10,
    min_history: int = 3,
    mad_sigma: float = 4.0,
    min_rel: float = 0.25,
    min_abs: float = 0.005,
) -> List[Regression]:
    """Gate the newest run of every digest against its own history.

    For each spec digest with at least ``min_history`` earlier
    successful runs (within the last ``last + 1``), the newest run is
    flagged when

    - its wall time exceeds ``median + max(mad_sigma * 1.4826 * MAD,
      min_rel * median, min_abs)`` of the preceding runs — a robust
      envelope that ignores a single historical outlier but catches
      sustained inflation; or
    - any deterministic field differs from the immediately preceding
      run of the same digest (virtual-time results can never
      legitimately drift).
    """
    out: List[Regression] = []
    for digest in registry.digests():
        history = registry.runs(
            digest=digest, ok=True, limit=last + 1, newest_first=True
        )
        if len(history) < 2:
            continue
        latest, previous = history[0], history[1:]

        drift = diff_runs(previous[0], latest).deterministic_mismatches
        if drift:
            names = ", ".join(f.name for f in drift[:5])
            out.append(
                Regression(
                    spec_digest=digest,
                    label=latest.label,
                    kind="deterministic",
                    latest_run=latest.run_id,
                    latest_value=float(len(drift)),
                    baseline_median=0.0,
                    threshold=0.0,
                    detail=f"{len(drift)} field(s) drifted: {names}",
                )
            )

        if latest.cached:
            continue

        def gate(kind: str, latest_value, baseline, floor: float) -> None:
            if latest_value is None or len(baseline) < min_history:
                return
            median = statistics.median(baseline)
            mad = statistics.median(abs(v - median) for v in baseline)
            threshold = median + max(
                mad_sigma * 1.4826 * mad, min_rel * median, floor
            )
            if latest_value > threshold:
                out.append(
                    Regression(
                        spec_digest=digest,
                        label=latest.label,
                        kind=kind,
                        latest_run=latest.run_id,
                        latest_value=float(latest_value),
                        baseline_median=median,
                        threshold=threshold,
                        detail=f"history of {len(baseline)} run(s)",
                    )
                )

        gate(
            "wall_time",
            latest.wall_time,
            [r.wall_time for r in previous if not r.cached],
            min_abs,
        )
        # peak-RSS inflation (resource accounting, schema-2 registries).
        # The absolute floor is wider than wall time's: RSS is reported
        # in KB and legitimately jitters by allocator page granularity.
        gate(
            "max_rss",
            (latest.resources or {}).get("max_rss_kb"),
            [
                r.resources["max_rss_kb"]
                for r in previous
                if not r.cached
                and r.resources is not None
                and r.resources.get("max_rss_kb") is not None
            ],
            1024.0,
        )
    return out
