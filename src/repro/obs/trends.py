"""Run and sweep diffing over the registry.

:func:`diff_runs` and :func:`diff_sweeps` compare two recorded runs —
or every digest-matched run pair of two sweeps — separating
*deterministic* fields (measurement values, update counts, per-AS
convergence instants: the simulator is virtual-time deterministic, so
these must match exactly between runs of the same spec digest) from
*timing* fields (wall-clock readings, reported against
:data:`TIMING_TOLERANCE` but never failing a diff).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .registry import RunRegistry, RunRow

__all__ = [
    "DETERMINISTIC_MEASUREMENT_FIELDS",
    "RESOURCE_TIMING_FIELDS",
    "TIMING_TOLERANCE",
    "FieldDiff",
    "RunDiff",
    "SweepDiff",
    "diff_runs",
    "diff_sweeps",
]

#: relative band a timing field must stay within to read as matched.
#: Timing rows are informational: a miss is reported, never a failure.
TIMING_TOLERANCE = 0.5

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


def diff_runs(run_a: RunRow, run_b: RunRow) -> RunDiff:
    """Field-by-field comparison of two recorded runs.

    Deterministic fields must be byte-equal (their JSON round-trips
    through the registry preserve exact values); ``wall_time`` passes
    within :data:`TIMING_TOLERANCE` relative error.
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
                kind="timing", ok=rel <= TIMING_TOLERANCE, rel_error=rel,
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


def _runs_by_digest(
    registry: RunRegistry, sweep_id: int
) -> Dict[str, List[RunRow]]:
    """A sweep's runs grouped by spec digest, each group in run_id order."""
    out: Dict[str, List[RunRow]] = {}
    for run in registry.runs(sweep_id=sweep_id):
        out.setdefault(run.spec_digest, []).append(run)
    return out


def diff_sweeps(
    registry: RunRegistry, sweep_a: int, sweep_b: int
) -> SweepDiff:
    """Pair the runs of two sweeps by spec digest and diff each pair.

    Digest-matching recovers the positional pairing regardless of
    execution order.  A sweep may repeat a spec, so within one digest
    the k-th run of each sweep (in run_id order) pairs with the k-th
    of the other; a digest's surplus runs on either side are listed
    once each in ``only_in_a``/``only_in_b`` and fail the diff.
    """
    runs_a = _runs_by_digest(registry, sweep_a)
    runs_b = _runs_by_digest(registry, sweep_b)
    out = SweepDiff(sweep_a=sweep_a, sweep_b=sweep_b)
    for digest in sorted(set(runs_a) | set(runs_b)):
        rows_a, rows_b = runs_a.get(digest, []), runs_b.get(digest, [])
        out.pairs.extend(diff_runs(a, b) for a, b in zip(rows_a, rows_b))
        paired = min(len(rows_a), len(rows_b))
        out.only_in_a.extend([digest] * (len(rows_a) - paired))
        out.only_in_b.extend([digest] * (len(rows_b) - paired))
    return out
