"""Declarative job descriptions for experiment sweeps.

A sweep is an embarrassingly parallel grid of independent trials; a
:class:`RunSpec` is the picklable, hashable description of exactly one
of them — scenario type, topology recipe, SDN membership, timer config
and seed.  Because the spec is *data* (no live objects, no closures) it
can cross process boundaries to a worker pool and it has a stable
content digest that keys the on-disk result cache.

The worker entry point is :func:`execute_spec`: it rebuilds the trial
from the spec, runs it, and returns a :class:`RunRecord` carrying the
measurement plus wall-clock/worker metadata.  Soft failures (a scenario
raising) are caught and returned as failed records so the pool can
apply its retry policy uniformly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..framework.convergence import ConvergenceMeasurement
from ..framework.experiment import POLICY_MODES
from ..net.network import TRACE_LEVELS

__all__ = [
    "SpecError",
    "ResourceAccounting",
    "RunSpec",
    "RunRecord",
    "SPEC_OPTIONS",
    "RECORD_PAYLOADS",
    "RESULT_PAYLOADS",
    "fraction_grid",
    "callable_token",
    "execute_spec",
    "run_trial",
    "run_trial_full",
]


class SpecError(ValueError):
    """A :class:`RunSpec` that cannot be executed or digested."""


def callable_token(fn: Callable) -> str:
    """A stable, process-independent identity for a factory callable.

    Only *importable* callables qualify — module-level functions and
    classes (referenced as ``module:qualname``) and ``functools.partial``
    wrappers over them.  Lambdas and local closures are rejected: they
    neither pickle across processes nor admit a stable digest.
    """
    if isinstance(fn, functools.partial):
        inner = callable_token(fn.func)
        kwargs = sorted(fn.keywords.items()) if fn.keywords else []
        return f"partial({inner}, args={fn.args!r}, kwargs={kwargs!r})"
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise SpecError(f"factory {fn!r} has no importable identity")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise SpecError(
            f"factory {module}:{qualname} is a lambda/local function; "
            "sweep factories must be module-level callables so they can "
            "be pickled to workers and digested for the result cache"
        )
    return f"{module}:{qualname}"


def _option(
    default=MISSING,
    kind: str = "bool",
    *,
    digest: str = "when_set",
    grid: bool = True,
    config: bool = False,
    compare: bool = True,
    **extras: Any,
):
    """Declare one :class:`RunSpec` field — the only place it is named.

    ``kind`` (with the extras ``json``: its JSON name when that is not
    the field name, ``json_default``, ``minimum``, ``choices``) is how
    :mod:`repro.config.specio` reads and writes it, and with ``help``
    how the CLI's ``--<name>`` flag reads it; ``digest`` is
    ``"always"``, ``"when_set"`` (in the digest only when it differs
    from the default, so specs that predate the field keep their
    digests and cache entries) or ``"never"``; ``grid`` says whether a
    sweep grid accepts it for every trial; ``config`` feeds it to the
    same-named ``paper_config`` keyword.
    """
    metadata = {
        "kind": kind, "digest": digest, "grid": grid, "config": config,
        **extras,
    }
    return field(default=default, compare=compare, metadata=metadata)


@dataclass(frozen=True)
class RunSpec:
    """One trial of a sweep, as pure data.

    ``sdn_count`` picks members via the standard highest-ASNs-first
    rule (:func:`~repro.experiments.common.sdn_set_for`); an explicit
    ``sdn_members`` tuple overrides it for placement-style experiments.
    ``faults`` is a fault schedule in canonical tuple form
    (:meth:`~repro.faults.FaultSchedule.canonical`) — already sorted and
    order-free, so the digest is stable no matter how the schedule was
    expressed.  ``label`` is cosmetic (progress lines) and excluded
    from the digest.

    Every field is declared once, with :func:`_option`: the digest, the
    JSON dialect, sweep grids and the experiment config all iterate
    :data:`SPEC_OPTIONS` (see "Adding a run option" in
    ``docs/architecture.md``).
    """

    scenario_factory: Callable = _option(
        kind="factory", json="scenario", digest="always"
    )
    topology_factory: Callable = _option(
        kind="factory", json="topology", json_default="clique",
        digest="always",
    )
    n: int = _option(
        kind="int", minimum=2, digest="always", help="ASes (clique size)"
    )
    sdn_count: int = _option(
        kind="int", minimum=0, json_default=0, digest="always", grid=False,
        help="ASes converted to SDN (highest ASNs first)",
    )
    seed: int = _option(
        kind="int", json_default=0, digest="always", grid=False, config=True,
        help="experiment base seed",
    )
    mrai: float = _option(
        30.0, "number", minimum=0.0, digest="always", config=True,
        help="BGP MRAI timer in seconds",
    )
    recompute_delay: float = _option(
        0.5, "number", minimum=0.0, digest="always", config=True,
        help="controller recompute debounce in seconds",
    )
    policy_mode: str = _option(
        "flat", "str", choices=tuple(POLICY_MODES), digest="always",
        config=True,
    )
    sdn_members: Optional[Tuple[int, ...]] = _option(
        None, "int_list", minimum=0, digest="always", grid=False
    )
    horizon: Optional[float] = _option(
        None, "number", minimum=0.0, digest="always"
    )
    #: changes no trial: ``run_scenario_full`` retains no trace at any
    #: level (``batch_config``).  Kept because every digest and cache
    #: entry includes it; deleting it is a digest re-pin.
    trace_level: str = _option(
        "full", "str", choices=tuple(TRACE_LEVELS), digest="always",
        config=True,
        help="accepted for spec digests only: no trial retains a trace "
        "at any level (measurements, metrics and spans are unaffected)",
    )
    metrics: bool = _option(
        False, digest="always", config=True,
        help="print record counts per category; wall time by layer goes "
        "into registry rows (shown by `runs show`)",
    )
    #: collect causal provenance spans and attach them to the record.
    #: Passive (results are bit-identical), but the record payload
    #: differs, so span-collecting trials get their own cache entries.
    spans: bool = _option(False, config=True)
    #: derive per-AS convergence anatomy (critical-path delay
    #: attribution) from the spans and attach it to the record.
    #: Requires ``spans``; out of the digest because anatomy is a pure
    #: function of the span payload — an anatomy-on trial is
    #: cache-equivalent to its anatomy-off twin, and a hit on an
    #: anatomy-less entry re-derives it losslessly.
    anatomy: bool = _option(
        False, digest="never",
        help="attribute each trial's convergence delay to its critical path",
    )
    faults: Optional[Tuple] = _option(None, "faults")
    #: lean build: no baseline full-mesh originations, no collector.
    #: The only tractable shape at thousands of ASes.
    lean: bool = _option(False, config=True)
    label: str = _option(
        "", "str", digest="never", grid=False, compare=False
    )
    #: Not options: the engine has one route store and one queue.  Two
    #: read-only names the frozen benchmark passes to ``paper_config``
    #: (``benchmarks/ledger/workloads.py:361-362``, ``compact=
    #: spec.compact`` / ``scheduler=spec.scheduler``); deleted with
    #: those lines in the next ``benchmark``-archetype PR.
    compact: ClassVar[bool] = True
    scheduler: ClassVar[str] = "heap"

    def describe(self) -> Dict[str, Any]:
        """The digest payload: every result-determining field, as
        process-independent primitives (factories become tokens)."""
        out: Dict[str, Any] = {}
        for name, key, always, default, canonical in _DIGESTED:
            value = getattr(self, name)
            if always or value != default:
                out[key] = canonical(value) if canonical else value
        return out

    def digest(self) -> str:
        """Stable content digest — the cache key of this trial."""
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def config_options(self) -> Dict[str, Any]:
        """The ``paper_config`` keywords this spec determines."""
        return {name: getattr(self, name) for name in _CONFIG_OPTIONS}

    def display(self) -> str:
        """Short human-readable tag for progress lines."""
        if self.label:
            return self.label
        return (
            f"{callable_token(self.scenario_factory).rsplit(':', 1)[-1]}"
            f"(n={self.n}, sdn={self.sdn_count}, seed={self.seed})"
        )


#: every RunSpec field with its declaration (``field.metadata``).
SPEC_OPTIONS = fields(RunSpec)
#: kinds whose digest form is not the value itself.
_CANONICAL = {
    "factory": callable_token,
    "int_list": lambda items: None if items is None else sorted(items),
}
_DIGESTED = tuple(
    (
        o.name, o.metadata.get("json", o.name),
        o.metadata["digest"] == "always", o.default,
        _CANONICAL.get(o.metadata["kind"]),
    )
    for o in SPEC_OPTIONS if o.metadata["digest"] != "never"
)
_CONFIG_OPTIONS = tuple(o.name for o in SPEC_OPTIONS if o.metadata["config"])


def fraction_grid(
    scenario_factory: Callable,
    topology_factory: Callable,
    *,
    n: int,
    sdn_counts: Optional[Sequence[int]] = None,
    runs: int = 1,
    seed_base: int = 100,
    max_specs: Optional[int] = None,
    **options: Any,
) -> Tuple[str, List[int], List[RunSpec]]:
    """Expand a Fig. 2-style fraction sweep to its trial specs.

    Returns ``(scenario name, sdn_counts, specs)``, specs ordered by
    count then run.  ``sdn_counts`` defaults to every convertible
    count; ``options`` are :class:`RunSpec` fields shared by every
    trial.  This is the one place the per-trial seed and label are
    derived, so Python sweeps and JSON grids share digests.
    """
    probe = scenario_factory()
    if sdn_counts is None:
        sdn_counts = range(0, n - len(probe.reserved_legacy) + 1)
    sdn_counts = list(sdn_counts)
    total = len(sdn_counts) * runs
    if max_specs is not None and total > max_specs:
        raise SpecError(
            f"grid expands to {total} trials "
            f"({len(sdn_counts)} sdn_counts x {runs} runs); "
            f"the limit is {max_specs}"
        )
    specs = []
    for sdn_count in sdn_counts:
        for run_index in range(runs):
            seed = seed_base + 1000 * sdn_count + run_index
            specs.append(
                RunSpec(
                    scenario_factory=scenario_factory,
                    topology_factory=topology_factory,
                    n=n,
                    sdn_count=sdn_count,
                    seed=seed,
                    label=f"{probe.name} sdn={sdn_count} seed={seed}",
                    **options,
                )
            )
    return probe.name, sdn_counts, specs


def _payload(json_type: type, *, result: bool = True):
    """Declare one optional :class:`RunRecord` payload: its JSON type,
    and whether it rides sweep results, exports and the service result
    body (``result``) or is execution accounting that only the cache
    and the registry keep."""
    return field(
        default=None, metadata={"payload": json_type, "result": result}
    )


@dataclass
class RunRecord:
    """Outcome of executing one :class:`RunSpec` (success or failure).

    The optional payloads are declared with :func:`_payload`; the
    cache, the registry, sweep results/exports and the service iterate
    :data:`RECORD_PAYLOADS` (see "Adding a record payload" in
    ``docs/architecture.md``).
    """

    digest: str
    ok: bool
    measurement: Optional[ConvergenceMeasurement] = None
    #: per-run metrics snapshot (``spec.metrics=True``), JSON-ready.
    metrics: Optional[Dict[str, Any]] = _payload(dict)
    #: per-run provenance spans (``spec.spans=True``), JSON-ready dicts.
    spans: Optional[list] = _payload(list)
    error: Optional[str] = None
    #: wall-clock seconds the trial took inside its worker.
    wall_time: float = 0.0
    #: ``pid-<n>`` of the worker process, or ``serial`` for in-process.
    worker: str = ""
    #: total execution attempts this record reflects (>= 2 after retry).
    attempts: int = 1
    #: True when the record came from the result cache, not execution.
    cached: bool = False
    #: True when the job was cancelled by request (``ok`` is False and
    #: the record is never cached).
    cancelled: bool = False
    #: per-job resource accounting (CPU user/sys seconds, peak RSS,
    #: GC pauses, events/s, and with ``spec.metrics`` wall time by
    #: layer) — digest-neutral record payload, never part of the
    #: measurement.  See :class:`ResourceAccounting`.
    resources: Optional[Dict[str, Any]] = _payload(dict, result=False)
    #: per-AS convergence anatomy (``spec.anatomy=True``), the compact
    #: JSON payload of :meth:`repro.obs.anatomy.ConvergenceAnatomy.to_dict`
    #: — derived from ``spans``, never from wall clocks.
    anatomy: Optional[Dict[str, Any]] = _payload(dict)

    def measurement_dict(self) -> Dict[str, Any]:
        """JSON-ready measurement fields (for the cache)."""
        if self.measurement is None:
            return {}
        return {
            f.name: getattr(self.measurement, f.name)
            for f in fields(ConvergenceMeasurement)
        }

    @staticmethod
    def measurement_from_dict(data: Dict[str, Any]) -> ConvergenceMeasurement:
        known = {f.name for f in fields(ConvergenceMeasurement)}
        return ConvergenceMeasurement(
            **{k: v for k, v in data.items() if k in known}
        )

    def payloads(self, *, result_only: bool = False) -> Dict[str, Any]:
        """The declared payloads by name (None when absent)."""
        names = RESULT_PAYLOADS if result_only else RECORD_PAYLOADS
        return {name: getattr(self, name) for name in names}


#: every optional RunRecord payload: name -> JSON type.
RECORD_PAYLOADS = {
    f.name: f.metadata["payload"]
    for f in fields(RunRecord) if "payload" in f.metadata
}
#: the payloads that ride sweep results, exports and the service body.
RESULT_PAYLOADS = tuple(
    f.name for f in fields(RunRecord) if f.metadata.get("result")
)


def run_trial(spec: RunSpec) -> ConvergenceMeasurement:
    """Rebuild the trial a spec describes and run it to completion.

    This is the exact serial recipe of ``run_fraction_sweep``: fresh
    scenario, scenario-shaped topology, standard member selection,
    paper config seeded from the spec.
    """
    measurement, _, _ = run_trial_full(spec)
    return measurement


def run_trial_full(
    spec: RunSpec,
    *,
    info: Optional[Dict[str, Any]] = None,
) -> Tuple[ConvergenceMeasurement, Optional[Dict[str, Any]], Optional[list]]:
    """One trial returning ``(measurement, metrics, spans)``.

    ``metrics`` is None unless ``spec.metrics``; ``spans`` (JSON-ready
    provenance span dicts) is None unless ``spec.spans``.  ``info``,
    when given, is filled with execution facts that are not part of the
    result (see :func:`~repro.experiments.common.run_scenario_full`) for
    resource accounting and anatomy.
    """
    # Imported here, not at module top: repro.experiments.common imports
    # the runner package, so the dependency must stay one-directional at
    # import time.
    from ..experiments.common import (
        paper_config,
        run_scenario_full,
        sdn_set_for,
    )

    scenario = spec.scenario_factory()
    if spec.faults is not None:
        scenario.faults = spec.faults
    topology = scenario.topology(spec.n, spec.topology_factory)
    if spec.sdn_members is not None:
        members = frozenset(spec.sdn_members)
    else:
        members = sdn_set_for(topology, spec.sdn_count, scenario.reserved_legacy)
    config = paper_config(**spec.config_options())
    return run_scenario_full(
        scenario, topology, members, config, horizon=spec.horizon, info=info,
    )


class ResourceAccounting:
    """Per-trial resource meter: CPU time, peak RSS, GC pauses.

    Wraps ``resource.getrusage(RUSAGE_SELF)`` deltas plus paired
    ``gc.callbacks`` timing.  ``max_rss_kb`` is the process-wide
    high-water mark at trial end (kilobytes) — ``getrusage`` offers no
    per-interval reading, so back-to-back trials in one worker report
    the running maximum.  Degrades to partial accounting on platforms
    without the ``resource`` module.
    """

    def __init__(self) -> None:
        try:
            import resource

            self._resource = resource
            self._r0 = resource.getrusage(resource.RUSAGE_SELF)
        except ImportError:  # pragma: no cover - non-POSIX
            self._resource = None
            self._r0 = None
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None
        import gc

        self._gc = gc
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif phase == "stop" and self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def finish(
        self,
        *,
        wall_time: float,
        events_processed: Optional[int] = None,
        wall_by_layer: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        """Detach and return the JSON-ready resources dict.

        ``wall_by_layer`` (dispatch wall seconds by layer, see
        :func:`~repro.eventsim.metrics.time_by_layer`) becomes
        ``wall_by_layer_s``, closed by ``outside_events``: the trial's
        wall time no dispatched event took (build, set-up, the queue,
        the hooks), so the entries sum to ``wall_time``.
        """
        try:
            self._gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - double finish
            pass
        out: Dict[str, Any] = {
            "gc_collections": self.gc_collections,
            "gc_pause_s": round(self.gc_pause_s, 6),
        }
        if self._resource is not None and self._r0 is not None:
            r1 = self._resource.getrusage(self._resource.RUSAGE_SELF)
            max_rss = r1.ru_maxrss
            if sys.platform == "darwin":  # bytes there, KiB on Linux
                max_rss //= 1024
            out.update(
                cpu_user_s=round(r1.ru_utime - self._r0.ru_utime, 6),
                cpu_sys_s=round(r1.ru_stime - self._r0.ru_stime, 6),
                max_rss_kb=int(max_rss),
            )
        if events_processed is not None:
            out["events_processed"] = int(events_processed)
            if wall_time > 0:
                out["events_per_s"] = round(events_processed / wall_time, 1)
        if wall_by_layer is not None:
            split = dict(sorted(wall_by_layer.items()))
            split["outside_events"] = wall_time - sum(split.values())
            out["wall_by_layer_s"] = split
        return out


def execute_spec(spec: RunSpec, cid: str = "") -> RunRecord:
    """Pool worker entry point: run one spec, never raise.

    Scenario exceptions come back as ``ok=False`` records (with the
    traceback) so the caller's retry policy sees soft and hard failures
    the same way; only interpreter death (crash/kill/CPU budget) surfaces
    through the pool machinery itself.  Every record carries
    digest-neutral resource accounting (with ``spec.metrics``, wall
    time by layer too — virtual-time results are unaffected, the
    telemetry differential test pins that); ``cid`` is the caller's
    correlation id, echoed into this worker's structured log lines.
    """
    from ..obs.logging import get_logger

    digest = spec.digest()
    log = get_logger("worker", cid=cid or None, digest=digest[:12])
    log.info("trial_started", label=spec.display(), pid=os.getpid())
    started = time.perf_counter()
    worker = f"pid-{os.getpid()}"
    accounting = ResourceAccounting()
    info: Dict[str, Any] = {}
    error = None
    try:
        measurement, metrics, spans = run_trial_full(spec, info=info)
    except Exception:
        error = traceback.format_exc(limit=20)
    finally:
        # Detaches the gc callback even when KeyboardInterrupt or
        # SystemExit passes through.
        wall_time = time.perf_counter() - started
        resources = accounting.finish(
            wall_time=wall_time,
            events_processed=info.get("events_processed"),
            wall_by_layer=info.get("wall_by_layer_s"),
        )
    if error is not None:
        log.error("trial_failed", wall_time=round(wall_time, 3))
        return RunRecord(
            digest=digest,
            ok=False,
            error=error,
            wall_time=wall_time,
            worker=worker,
            resources=resources,
        )
    log.info(
        "trial_finished",
        wall_time=round(wall_time, 3),
        cpu_user_s=resources.get("cpu_user_s"),
        max_rss_kb=resources.get("max_rss_kb"),
    )
    record = RunRecord(
        digest=digest,
        ok=True,
        measurement=measurement,
        metrics=metrics,
        spans=spans,
        wall_time=wall_time,
        worker=worker,
        resources=resources,
    )
    if spec.anatomy:
        # Derived after the trial from the spans alone, so it can never
        # perturb virtual-time results (and needs ``spec.spans``); the
        # tracker's live list spares a dict -> Span round trip.
        from ..obs.anatomy import ensure_record_anatomy

        ensure_record_anatomy(record, info.get("live_spans"))
    return record
