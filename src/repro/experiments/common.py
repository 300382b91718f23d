"""Shared machinery for the paper's experiment sweeps.

Every paper experiment has the same skeleton: build a topology, convert
a chosen fraction of ASes to centralized (SDN) control, converge, inject
a routing event, and measure convergence over several seeded runs.  The
:class:`Scenario` subclasses define the event; :func:`run_fraction_sweep`
is the Fig. 2-style harness that sweeps the SDN deployment fraction.

Paper-faithful defaults: MRAI 30 s with RFC jitter, Quagga-style pacing
of withdrawals (Quagga's per-peer advertisement-interval applies to its
whole output queue), controller recompute delay 0.5 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..analysis.stats import BoxplotStats, LinearFit, boxplot_stats, linear_fit
from ..bgp.session import BGPTimers
from ..controller.idr import ControllerConfig
from ..eventsim.metrics import time_by_layer
from ..faults.engine import FaultInjector
from ..faults.schedule import FaultSchedule
from ..framework.convergence import ConvergenceMeasurement, measure_event
from ..framework.experiment import (
    Experiment,
    ExperimentConfig,
    _full_collections_held,
)
from ..net.addr import Prefix
from ..runner import ParallelRunner, RunSpec, SweepTiming, fraction_grid
from ..runner.jobs import TRACE_LEVEL_CHOICES
from ..topology.builders import clique
from ..topology.model import Topology

__all__ = [
    "paper_timers",
    "paper_config",
    "Scenario",
    "WithdrawalScenario",
    "FailoverScenario",
    "AnnouncementScenario",
    "RunResult",
    "FailedRun",
    "SweepPoint",
    "SweepResult",
    "run_scenario_once",
    "run_scenario_full",
    "relative_reduction",
    "seeded_specs",
    "run_groups",
    "run_fraction_sweep",
    "sdn_set_for",
]


def paper_timers(mrai: float = 30.0) -> BGPTimers:
    """Quagga-like timers used by the paper's evaluation."""
    return BGPTimers(mrai=mrai, withdrawal_rate_limited=True)


def paper_config(
    *,
    seed: int = 0,
    mrai: float = 30.0,
    recompute_delay: float = 0.5,
    policy_mode: str = "flat",
    trace_level: str = "full",
    metrics: bool = False,
    spans: bool = False,
    compact: bool = True,
    lean: bool = False,
    scheduler: str = "heap",
) -> ExperimentConfig:
    """The configuration matching the paper's clique experiments.

    ``lean`` drops the baseline full-mesh originations and the route
    collector — the memory shape Internet-scale trials need, where
    per-AS /24s would mean O(n²) Adj-RIB entries.
    """
    # Not options: the frozen benchmark still passes these three
    # keywords (``benchmarks/ledger/workloads.py:361-362``); they are
    # checked, forwarded nowhere (no network retains a trace), and
    # deleted with those lines in the next ``benchmark``-archetype PR.
    if compact is not True or scheduler != "heap":
        raise ValueError(
            "the engine has one route store (the prefix index) and one "
            f"queue (the binary heap); got compact={compact!r}, "
            f"scheduler={scheduler!r}"
        )
    if trace_level not in TRACE_LEVEL_CHOICES:
        raise ValueError(
            f"unknown trace level {trace_level!r}; "
            f"choose from {sorted(TRACE_LEVEL_CHOICES)}"
        )
    return ExperimentConfig(
        seed=seed,
        policy_mode=policy_mode,
        timers=paper_timers(mrai),
        controller=ControllerConfig(recompute_delay=recompute_delay),
        metrics=metrics,
        spans=spans,
        with_collector=not lean,
        originate_all=not lean,
    )


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """One injectable routing event on a prepared experiment.

    ``reserved_legacy`` ASes never convert to SDN in fraction sweeps —
    e.g. the withdrawing origin stays a legacy BGP router so the event
    itself is identical at every deployment fraction.
    """

    name: str = "scenario"
    reserved_legacy: frozenset = frozenset({1})

    def topology(self, n: int, base_factory=clique) -> Topology:
        """Build the scenario's topology (default: the plain base)."""
        return base_factory(n)

    def configure(self, exp: Experiment) -> None:
        """Hook between build() and start() (session policy tweaks)."""

    def prepare(self, exp: Experiment) -> None:
        """Bring the experiment to the pre-event steady state."""

    def event(self, exp: Experiment) -> None:
        """The measured routing event."""
        raise NotImplementedError

    def finish(self, exp: Experiment) -> None:
        """Hook after the event settled (fault scenarios finalize here)."""


@dataclass
class WithdrawalScenario(Scenario):
    """Fig. 2: the origin withdraws a previously announced prefix."""

    name: str = "withdrawal"
    origin: int = 1
    prefix: Optional[Prefix] = None

    def __post_init__(self) -> None:
        self.reserved_legacy = frozenset({self.origin})

    def prepare(self, exp: Experiment) -> None:
        """Bring the experiment to the pre-event steady state."""
        self.prefix = exp.announce(self.origin)
        exp.wait_converged()

    def event(self, exp: Experiment) -> None:
        """The measured routing event."""
        exp.withdraw(self.origin, self.prefix)


@dataclass
class FailoverScenario(Scenario):
    """§4: primary/backup fail-over to a longer alternate path.

    The classic operator setup: an origin AS dual-homes into the mesh
    via a primary gateway and a backup gateway whose session carries
    AS-path prepending, so backup paths are ``prepend`` hops longer.
    When the primary link fails, every AS must move from the short
    primary paths to the long backup paths — and plain BGP *explores*
    the length gap in MRAI-paced rounds (Labovitz's Tlong event), while
    the IDR controller jumps straight to the surviving egress.  The
    exploration depth is bounded by the gap (unlike a withdrawal, which
    explores everything), hence the paper's "smaller reductions".

    The origin is AS ``n + 1``, outside the clique; the gateways are
    AS 1 (primary) and AS 2 (backup); all three stay legacy.
    """

    name: str = "failover"
    primary_gw: int = 1
    backup_gw: int = 2
    prepend: int = 3
    origin: int = 0  # assigned in topology()
    prefix: Optional[Prefix] = None

    def __post_init__(self) -> None:
        # Origin and primary gateway stay legacy (the event's actors);
        # the *backup* gateway is convertible — it joins the cluster at
        # the top of the sweep, which is where the reduction appears,
        # because the backup gateway is the router whose MRAI-paced
        # exploration dominates fail-over convergence.
        self.reserved_legacy = frozenset({self.primary_gw})

    def topology(self, n: int, base_factory=clique) -> Topology:
        """Build the scenario's topology."""
        topo = base_factory(n)
        self.origin = max(topo.asns) + 1
        self.reserved_legacy = frozenset({self.origin, self.primary_gw})
        topo.add_as(self.origin, role="dual-homed origin")
        topo.add_link(self.primary_gw, self.origin)
        topo.add_link(self.backup_gw, self.origin)
        return topo

    def configure(self, exp: Experiment) -> None:
        """Hook between build() and start()."""
        exp.set_export_prepend(self.origin, toward=self.backup_gw,
                               count=self.prepend)

    def prepare(self, exp: Experiment) -> None:
        """Bring the experiment to the pre-event steady state."""
        self.prefix = exp.announce(self.origin)
        exp.wait_converged()

    def event(self, exp: Experiment) -> None:
        """The measured routing event, expressed as a fault schedule.

        A ``link_down`` at offset 0 is bit-identical to calling
        ``exp.fail_link`` synchronously — all protocol timing is
        delay-based — which the differential oracle tests pin down.
        """
        schedule = FaultSchedule().link_down(
            self.origin, self.primary_gw, at=0.0
        )
        FaultInjector(exp, schedule, check_invariants=False).inject()


@dataclass
class AnnouncementScenario(Scenario):
    """§4: a brand-new prefix is announced and must propagate."""

    name: str = "announcement"
    origin: int = 1

    def __post_init__(self) -> None:
        self.reserved_legacy = frozenset({self.origin})

    def event(self, exp: Experiment) -> None:
        """The measured routing event."""
        exp.announce(self.origin)


# ----------------------------------------------------------------------
# sweep harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunResult:
    """One (sdn_count, seed) run.

    The trailing metadata fields describe *how* the run executed (they
    never affect the measured statistics): wall-clock seconds inside
    the worker, which worker ran it (``serial``/``pid-N``), whether it
    was served from the result cache, and how many attempts it took.
    """

    sdn_count: int
    fraction: float
    seed: int
    measurement: ConvergenceMeasurement
    wall_time: float = 0.0
    worker: str = ""
    cached: bool = False
    attempts: int = 1
    #: per-run metrics snapshot (sweeps launched with ``metrics=True``).
    metrics: Optional[dict] = None
    #: per-run provenance spans (sweeps launched with ``spans=True``).
    spans: Optional[list] = None
    #: per-run convergence anatomy (sweeps launched with
    #: ``anatomy=True``): the critical-path delay attribution payload.
    anatomy: Optional[dict] = None

    @property
    def convergence_time(self) -> float:
        """Seconds from firing to the last routing activity."""
        return self.measurement.convergence_time


@dataclass(frozen=True)
class FailedRun:
    """A run that exhausted its retries (an exception, a dead worker or
    a spent CPU budget)."""

    sdn_count: int
    fraction: float
    seed: int
    error: str
    attempts: int = 1


@dataclass
class SweepPoint:
    """All runs of one :func:`run_groups` group — in a fraction sweep,
    one SDN deployment fraction."""

    sdn_count: int
    fraction: float
    runs: List[RunResult] = field(default_factory=list)
    failures: List[FailedRun] = field(default_factory=list)

    @property
    def times(self) -> List[float]:
        """Raw convergence times of all runs."""
        return [r.convergence_time for r in self.runs]

    @property
    def stats(self) -> BoxplotStats:
        """Boxplot summary over the runs."""
        return boxplot_stats(self.times)

    @property
    def median_updates(self) -> float:
        """Median per-run update count."""
        counts = sorted(r.measurement.updates_tx for r in self.runs)
        return counts[len(counts) // 2] if counts else 0


def relative_reduction(base: SweepPoint, other: SweepPoint) -> float:
    """How much lower ``other``'s median convergence time is, as a
    fraction of ``base``'s (0 when ``base`` converged instantly)."""
    base_median = base.stats.median
    if base_median <= 0:
        return 0.0
    return (base_median - other.stats.median) / base_median


@dataclass
class SweepResult:
    """A full fraction sweep for one scenario."""

    scenario: str
    n_ases: int
    points: List[SweepPoint]
    #: how the sweep executed (elapsed, per-job wall-clock, cache hits);
    #: None for results assembled outside the runner.
    timing: Optional[SweepTiming] = None

    @property
    def failed_runs(self) -> List[FailedRun]:
        """Every run that failed for good, across all points."""
        return [f for p in self.points for f in p.failures]

    def medians(self) -> List[float]:
        """Median convergence times of all sweep points."""
        return [p.stats.median for p in self.points]

    def fractions(self) -> List[float]:
        """SDN fractions of all sweep points."""
        return [p.fraction for p in self.points]

    def fit(self) -> LinearFit:
        """Linear fit of median convergence time vs SDN fraction."""
        return linear_fit(self.fractions(), self.medians())

    def reduction_at_full(self) -> float:
        """Relative reduction from the 0% to the highest-fraction point."""
        return relative_reduction(self.points[0], self.points[-1])

    def merged_metrics(self) -> Optional[dict]:
        """All per-run metric snapshots merged into one registry dump.

        None when the sweep ran without ``metrics=True``.
        """
        from ..eventsim import merge_snapshots

        snapshots = [
            r.metrics for p in self.points for r in p.runs
            if r.metrics is not None
        ]
        return merge_snapshots(snapshots) if snapshots else None

    def anatomy_by_fraction(self) -> List[Optional[dict]]:
        """Per-point aggregated delay attribution, sweep order.

        Each entry is :func:`repro.obs.anatomy.aggregate_anatomy` over
        the point's runs (median per-category critical-path waterfall),
        or None when no run at that fraction carried anatomy — the
        figure-2 axis answer to *which* delay category centralization
        removes.
        """
        from ..obs.anatomy import aggregate_anatomy

        return [
            aggregate_anatomy(r.anatomy for r in point.runs)
            for point in self.points
        ]


def sdn_set_for(
    topology: Topology, sdn_count: int, reserved_legacy: frozenset
) -> frozenset:
    """Pick which ASes convert to SDN: highest ASNs first, skipping the
    scenario's reserved legacy set, so every sweep point changes only the
    *number* of converted ASes, never the event's actors."""
    candidates = [a for a in reversed(topology.asns) if a not in reserved_legacy]
    if sdn_count > len(candidates):
        raise ValueError(
            f"cannot convert {sdn_count} of {len(topology)} ASes "
            f"({len(reserved_legacy)} reserved)"
        )
    return frozenset(candidates[:sdn_count])


def run_scenario_once(
    scenario: Scenario,
    topology: Topology,
    sdn_members: frozenset,
    config: ExperimentConfig,
    *,
    horizon: Optional[float] = None,
) -> ConvergenceMeasurement:
    """Build, configure, prepare, inject, measure — one full run."""
    measurement, _, _ = run_scenario_full(
        scenario, topology, sdn_members, config, horizon=horizon
    )
    return measurement


@_full_collections_held()
def run_scenario_full(
    scenario: Scenario,
    topology: Topology,
    sdn_members: frozenset,
    config: ExperimentConfig,
    *,
    horizon: Optional[float] = None,
    info: Optional[dict] = None,
) -> tuple:
    """One full run, returning ``(measurement, metrics, spans)``.

    ``metrics`` is None unless ``config.metrics``; ``spans`` (JSON-ready
    provenance span dicts) is None unless ``config.spans``.  The
    measurement's ``extra`` dict also carries ``event_root_span`` — the
    span id of the measured event's root cause — when spans are on, so
    downstream reports can find the event's causal tree without
    heuristics.  ``info``, when given, receives execution facts that
    are not part of the result so worker-side resource accounting can
    report them without touching the measurement: ``events_processed``;
    with ``config.metrics``, ``wall_by_layer_s`` (dispatch wall seconds
    by layer, :func:`~repro.eventsim.metrics.time_by_layer`); with
    ``config.spans``, ``live_spans`` (the tracker's own
    :class:`~repro.obs.spans.Span` list, which ``spans`` snapshots, so
    the worker derives anatomy without reading the dicts back).

    The experiment is closed on the way out, result or
    exception (:meth:`~repro.framework.experiment.Experiment.close`):
    none of the outputs holds a device, so the trial is freed the
    moment this returns.  No automatic collection runs from build to
    close (see ``_full_collections_held``).
    """
    exp = Experiment(
        topology, sdn_members=sdn_members, config=config,
        name=scenario.name,
    )
    try:
        exp.build()
        if config.metrics and info is not None:
            info["wall_by_layer_s"] = time_by_layer(exp.net.sim)
        scenario.configure(exp)
        exp.start()
        scenario.prepare(exp)
        spans_before = len(exp.spans.spans) if exp.spans is not None else 0
        measurement = measure_event(
            exp, lambda: scenario.event(exp), horizon=horizon
        )
        scenario.finish(exp)
        spans = exp.spans_snapshot()
        if spans is not None:
            # The event's root is the first new root-cause span created
            # at or after injection (scenario events fire outside any
            # message context, so the event always opens a fresh causal
            # tree).
            for span in spans[spans_before:]:
                if (
                    span["parent_id"] is None
                    and span["t_end"] >= measurement.t_event
                ):
                    measurement.extra["event_root_span"] = span["span_id"]
                    break
        if info is not None:
            info["events_processed"] = exp.net.sim.events_processed
            if exp.spans is not None:
                info["live_spans"] = exp.spans.spans
        return measurement, exp.metrics_snapshot(), spans
    finally:
        exp.close()


def seeded_specs(runs: int, seed: int, label: str, **fields) -> List[RunSpec]:
    """One group's trials: ``runs`` specs sharing ``fields``, seeded
    ``seed``, ``seed + 1``, ... and labelled ``"<label> run=<i>"``."""
    return [
        RunSpec(seed=seed + i, label=f"{label} run={i}", **fields)
        for i in range(runs)
    ]


def run_groups(
    groups: Mapping[Hashable, Sequence[RunSpec]],
    *,
    workers: int = 1,
    **runner,
) -> Tuple[Dict[Hashable, SweepPoint], SweepTiming]:
    """The grid harness: labelled groups of trials through the one runner.

    Every multi-trial experiment is a mapping ``label -> specs`` (one
    group per reported row: an SDN count, a ``(family, k)`` pair, a
    placement strategy, ...).  All groups execute as one job matrix on
    a :class:`~repro.runner.ParallelRunner` — ``workers`` processes and
    ``runner``, its remaining options (``cache``, ``progress``,
    ``registry``; see ``docs/runner.md``) — and come back as one
    :class:`SweepPoint` per label, in label order, ``runs`` in spec
    order.  Every trial gets the runner's retries and, in a worker
    process, its CPU budget (``RETRIES`` and ``TRIAL_CPU_SECONDS`` in
    :mod:`repro.runner.pool`).  A trial that fails for good lands in its
    own group's ``failures`` and nowhere else; the other groups are
    unaffected.  A point's ``sdn_count``/``fraction`` are its first
    spec's (a group shares one deployment).  The returned timing carries
    the cache directory's totals, read once after the sweep (0 without
    a cache); the runner itself never lists the directory.
    """
    pool = ParallelRunner(workers, **runner)
    records = iter(pool.run([s for group in groups.values() for s in group]))
    timing = pool.last_timing
    stats = pool.cache.stats() if pool.cache is not None else None
    timing.cache_entries = stats.entries if stats else 0
    timing.cache_bytes = stats.total_bytes if stats else 0
    points: Dict[Hashable, SweepPoint] = {}
    for label, group in groups.items():
        head = group[0] if group else None
        point = points[label] = SweepPoint(
            sdn_count=head.sdn_count if head else 0,
            fraction=head.sdn_count / head.n if head else 0.0,
        )
        # zip stops on the group's end, before drawing another record.
        for spec, record in zip(group, records):
            where = dict(
                sdn_count=spec.sdn_count,
                fraction=spec.sdn_count / spec.n,
                seed=spec.seed,
                attempts=record.attempts,
            )
            if record.ok:
                point.runs.append(
                    RunResult(
                        measurement=record.measurement,
                        wall_time=record.wall_time,
                        worker=record.worker,
                        cached=record.cached,
                        **where,
                        **record.payloads(result_only=True),
                    )
                )
            else:
                point.failures.append(
                    FailedRun(error=record.error or "unknown failure", **where)
                )
    return points, timing


def run_fraction_sweep(
    scenario_factory,
    *,
    n: int = 16,
    sdn_counts: Optional[Sequence[int]] = None,
    runs: int = 10,
    seed_base: int = 100,
    topology_factory=clique,
    workers: int = 1,
    cache=None,
    progress=None,
    registry=None,
    **options,
) -> SweepResult:
    """The Fig. 2 harness: sweep SDN deployment over seeded runs.

    ``scenario_factory`` must return a *fresh* scenario per run (scenarios
    carry per-run state such as the announced prefix) and must be a
    module-level callable (it is pickled to workers and digested for the
    cache — see ``docs/runner.md``).

    The trials are independent, so the grid routes through
    :func:`run_groups` (one group per SDN count): ``workers`` processes,
    ``cache`` (a directory path or :class:`~repro.runner.ResultCache`)
    to skip already-computed trials and ``progress`` (``'log'`` or a
    :class:`~repro.runner.ProgressSink`) for reporting.  ``registry`` (a
    :class:`~repro.obs.registry.RunRegistry`, a path, or a prepared
    :class:`~repro.obs.registry.RegistrySink`) records every trial —
    including cache hits and failures — into the cross-run telemetry
    store (see ``docs/telemetry.md``).

    ``options`` are the :class:`~repro.runner.RunSpec` fields every
    trial shares (``mrai``, ``recompute_delay``, ``trace_level``,
    ``metrics``, ``spans``, ``anatomy``, ``faults``, ... — whatever
    the spec declares grid-wide).  ``trace_level`` only sets the
    digest: no network retains a trace.
    ``metrics``/``spans`` attach the matching payload to every
    :class:`RunResult`; ``anatomy=True`` additionally derives each
    run's critical-path delay attribution from the spans (implies
    ``spans=True``; digest-neutral, so cached span-collecting trials
    are reused as-is).  ``faults`` (a
    :class:`~repro.faults.FaultSchedule` or its canonical tuple) is
    embedded in every spec — scenarios that understand fault schedules
    (``FaultSuiteScenario``) read it back from ``scenario.faults``.
    Results are bit-identical across worker counts: every run is seeded
    from the spec alone and ``SweepPoint.runs`` keeps the serial
    ordering.  Runs that fail for good land in ``SweepPoint.failures``
    instead of aborting the sweep.
    """
    if options.get("anatomy"):
        options["spans"] = True  # anatomy is derived from the span payload
    if isinstance(options.get("faults"), FaultSchedule):
        options["faults"] = options["faults"].canonical()
    scenario, sdn_counts, specs = fraction_grid(
        scenario_factory, topology_factory, n=n, sdn_counts=sdn_counts,
        runs=runs, seed_base=seed_base, **options,
    )
    points, timing = run_groups(
        {
            sdn_count: specs[i * runs:(i + 1) * runs]
            for i, sdn_count in enumerate(sdn_counts)
        },
        workers=workers, cache=cache, progress=progress, registry=registry,
    )
    return SweepResult(
        scenario=scenario, n_ases=n, points=list(points.values()),
        timing=timing,
    )
