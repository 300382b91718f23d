"""Command-line interface: run the paper's experiments from a shell.

Usage (also ``python -m repro --help``)::

    python -m repro fig2 --n 16 --runs 10 --workers 4 --cache-dir .cache
    python -m repro failover --runs 5
    python -m repro announcement --runs 5
    python -m repro sweep --scenario withdrawal --workers 8
    python -m repro sweep --self-check
    python -m repro subcluster
    python -m repro topologies --runs 3
    python -m repro reproduce fig2_withdrawal --workers 2
    python -m repro faults list
    python -m repro faults run --scenario gateway-outage --fault-seed 3
    python -m repro scenarios --suites gateway-outage,router-crash
    python -m repro demo --n 8 --sdn 5,6,7,8
    python -m repro trace run --n 16 --sdn-count 4 --chrome trace.json
    python -m repro trace report spans.jsonl --markdown report.md
    python -m repro trace export spans.jsonl -o trace.json
    python -m repro dot --topology clique:8 --sdn 5,6,7,8
    python -m repro fig2 --runs 2 --registry runs.sqlite --metrics
    python -m repro runs list --registry runs.sqlite
    python -m repro runs diff 1 2 --sweeps
    python -m repro runs dashboard -o dashboard.html
    python -m repro cache stats --cache-dir .cache

Every sweep command accepts ``--workers/--cache-dir/--no-cache`` (see
``docs/runner.md``): parallel execution is bit-identical to serial, and
a warm cache re-runs only missing trials.  No trial retains a trace:
``--trace-level`` is kept because spec digests include it, and changes
nothing a trial does.  ``--metrics`` collects per-run metric
snapshots, and a global ``--quiet`` silences informational output
(primary artifacts and warnings still print).

Every command prints the same rows/series the corresponding paper
artifact reports; ``reproduce`` regenerates the committed
``benchmarks/results/`` files at full size and checks their shapes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis import (
    ascii_boxplot_chart,
    provenance_markdown,
    provenance_report,
    topology_dot,
)
from .config import ServiceConfig
from .config.specio import scenario_names, scenario_registry, topology_registry
from .eventsim import RecordDigest, format_snapshot
from .experiments import (
    FaultSuiteScenario,
    WithdrawalScenario,
    announcement_sweep,
    failover_sweep,
    flap_storm_sweep,
    paper_config,
    run_fraction_sweep,
    run_subcluster_experiment,
    scenarios_sweep,
    sweep_to_csv,
    sweep_to_json,
    topology_family_sweep,
    withdrawal_sweep,
)
from .experiments.common import run_scenario_full, sdn_set_for
from .obs import chrome_trace_json, spans_from_jsonl, spans_to_jsonl
from .obs.registry import DEFAULT_REGISTRY_PATH, REGISTRY_ENV, RunRegistry
from .faults import FaultSchedule, canned_names, get_canned
from .runner.cache import DEFAULT_CACHE_DIR
from .runner.jobs import SPEC_OPTIONS, RunSpec, run_trial_full
from .topology import clique

__all__ = ["main", "Output"]

#: environment fallback for ``--cache-dir`` on every sweep command.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: RunSpec options by field name: what every spec flag is built from.
_OPTIONS = {option.name: option for option in SPEC_OPTIONS}


class Output:
    """The CLI's single output gate.

    Every command writes through one of these instead of calling
    ``print()`` directly, so ``--quiet`` has exactly one switch to
    flip: :meth:`info` lines vanish, :meth:`emit` lines (primary
    artifacts and warnings) always reach stdout.
    """

    def __init__(self, quiet: bool = False, stream=None) -> None:
        self.quiet = quiet
        self.stream = stream if stream is not None else sys.stdout

    def info(self, text: str = "") -> None:
        """Informational line; suppressed by ``--quiet``."""
        if not self.quiet:
            print(text, file=self.stream)

    def emit(self, text: str = "") -> None:
        """Primary artifact or warning; never suppressed."""
        print(text, file=self.stream)


def _parse_sdn(text: Optional[str]) -> set:
    """``type=`` of ``--sdn``/``--origins``: ASNs and ranges (``1,4-6``)."""
    out = set()
    try:
        for part in filter(None, map(str.strip, (text or "").split(","))):
            lo, dash, hi = part.partition("-")
            out.update(range(int(lo), int(hi if dash else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad AS list {text!r} (want e.g. 5,6,7 or 5-8)"
        ) from None
    return out


def _parse_topology(text: str):
    """``type=`` of ``dot --topology``: ``kind[:size]`` (size 8 when
    omitted), any topology name a spec payload accepts."""
    kind, _, size = text.partition(":")
    builders = topology_registry()
    if kind not in builders:
        raise argparse.ArgumentTypeError(
            f"unknown topology {kind!r}; choose from {sorted(builders)}"
        )
    try:
        return builders[kind](int(size) if size else 8)
    except ValueError as exc:  # a non-integer size, or a TopologyError
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _parse_fractions(text: str) -> List[float]:
    """``type=`` of ``--fractions``: SDN fractions in [0, 1]."""
    try:
        fractions = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        fractions = []
    if not fractions or any(not 0.0 <= f <= 1.0 for f in fractions):
        raise argparse.ArgumentTypeError(
            f"bad value {text!r} (want values in [0, 1], e.g. 0,0.5,1)"
        )
    return fractions


def _at_least(convert, minimum):
    """``convert``, then refuse values under ``minimum`` in specio's
    words."""
    def parse(text: str):
        value = convert(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


def _spec_flags(parser, *names: str, **defaults) -> None:
    """Add ``--<name>`` for each named RunSpec option, read from its
    declaration (``kind``, ``choices``, ``minimum``, ``help``, default);
    ``defaults`` are this command's own (``n`` declares none)."""
    for name in names:
        option = _OPTIONS[name]
        meta = option.metadata
        if meta["kind"] == "bool":
            kind = {"action": "store_true"}
        else:
            convert = {"int": int, "number": float}.get(meta["kind"])
            if "minimum" in meta:
                convert = _at_least(convert, meta["minimum"])
            kind = {"type": convert, "choices": meta.get("choices")}
        parser.add_argument(
            "--" + name.replace("_", "-"),
            default=defaults.get(name, meta.get("json_default", option.default)),
            help=meta["help"].replace("%", "%%"),  # argparse %-formats help
            **kind,
        )


def _spec_values(args) -> dict:
    """The RunSpec options this command has flags for, by field name."""
    flags = vars(args)
    return {name: flags[name] for name in _OPTIONS if name in flags}


def _cache_dir(args, default=None) -> Optional[str]:
    """``--cache-dir``, else ``$REPRO_CACHE_DIR``, else ``default``;
    None on ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    return cache_dir or os.environ.get(CACHE_DIR_ENV) or default


def _registry_path(args, default=DEFAULT_REGISTRY_PATH) -> Optional[str]:
    """``--registry``, else ``$REPRO_REGISTRY``, else ``default``."""
    registry = getattr(args, "registry", None)
    return registry or os.environ.get(REGISTRY_ENV) or default


def _write(out: Output, path: str, text: str, note: str = "",
           *, gap: bool = False) -> None:
    """Write one artifact file and say so (after a blank line with
    ``gap``); the line is informational, so ``--quiet`` drops it."""
    with open(path, "w") as handle:
        handle.write(text)
    out.info(("\n" if gap else "") + f"wrote {path}{note}")


def _print_sweep(result, title: str, out: Output) -> None:
    out.info(title)
    out.info("-" * len(title))
    rows = []
    for point in result.points:
        s = point.stats
        out.info(
            f"  {point.sdn_count:2d}/{result.n_ases} SDN  "
            f"median {s.median:8.1f}s  q1 {s.q1:8.1f}  q3 {s.q3:8.1f}  "
            f"updates {point.median_updates:5.0f}"
        )
        rows.append((f"{point.sdn_count:2d}/{result.n_ases}", s))
    out.info()
    out.info(ascii_boxplot_chart(rows, unit="s"))
    fit = result.fit()
    out.info(
        f"\nlinear fit of medians: slope {fit.slope:.1f}s/fraction, "
        f"R^2 {fit.r_squared:.3f}; "
        f"reduction at max deployment {result.reduction_at_full():.0%}"
    )


def _print_metrics(result, out: Output) -> None:
    """Merged metrics summary for sweeps launched with --metrics."""
    merged = result.merged_metrics()
    if merged is None:
        return
    out.info("\nmetrics (merged over all runs)")
    out.info(format_snapshot(merged))


def _print_anatomy(result, out: Output) -> None:
    """Per-fraction delay attribution for sweeps with --anatomy."""
    from .obs.anatomy import ANATOMY_CATEGORIES

    per_point = result.anatomy_by_fraction()
    if not any(per_point):
        return
    out.info("\ncritical-path delay attribution (median seconds per run)")
    header = "  sdn    " + "".join(
        f"{cat:>14}" for cat in ANATOMY_CATEGORIES
    ) + f"{'total':>14}"
    out.info(header)
    for point, agg in zip(result.points, per_point):
        if not agg:
            continue
        cells = "".join(
            f"{agg['categories'].get(cat, 0.0):14.3f}"
            for cat in ANATOMY_CATEGORIES
        )
        out.info(
            f"  {point.sdn_count:2d}/{result.n_ases}{cells}"
            f"{agg['total']:14.3f}"
        )


def _runner_kwargs(args) -> dict:
    """Map the shared sweep flags onto the sweep functions' keywords:
    --runs, the runner options (--workers/--cache-dir/--no-cache/
    --progress/--registry) and every RunSpec option the command has a
    flag for (--n, --mrai, --metrics, --anatomy, ...)."""
    return {
        "runs": args.runs,
        "workers": getattr(args, "workers", 1),
        "cache": _cache_dir(args),
        "progress": "log" if getattr(args, "progress", False) else None,
        "registry": _registry_path(args, default=None),
        **_spec_values(args),
    }


def cmd_subcluster(args) -> int:
    # the results table is imported on use, so `repro serve` and the
    # other commands never load it
    from .experiments.reproduce import RESULTS

    result = run_subcluster_experiment(seed=args.seed)
    args.out.info(RESULTS["subcluster"].report([result]))
    return 0 if result.reachable_after else 1


def _warn_failures(failures, out: Output) -> int:
    """Name every trial that failed for good; the command's exit code."""
    if failures:
        out.emit(f"\nWARNING: {len(failures)} run(s) failed:")
    for failure in failures:
        first_line = failure.error.strip().splitlines()[-1]
        out.emit(
            f"  sdn={failure.sdn_count} seed={failure.seed} "
            f"after {failure.attempts} attempt(s): {first_line}"
        )
    return 1 if failures else 0


def cmd_topologies(args) -> int:
    from .experiments.reproduce import RESULTS

    results = topology_family_sweep(**_runner_kwargs(args))
    args.out.info(RESULTS["topologies"].report(results))
    return _warn_failures([f for r in results for f in r.failures], args.out)


def _result_name(text: str) -> str:
    """``type=`` of ``reproduce``'s names: a key of ``RESULTS``."""
    from .experiments.reproduce import RESULTS

    if text not in RESULTS:
        raise argparse.ArgumentTypeError(
            f"unknown result {text!r} (choose from {', '.join(RESULTS)})"
        )
    return text


def cmd_reproduce(args) -> int:
    """Regenerate ``benchmarks/results/<name>.txt`` at the committed
    size and check each result's shape; 1 if a check or trial failed.
    A result that lost trials is not written."""
    from .experiments.reproduce import RESULTS, RESULTS_DIR

    out = args.out
    runner = {"workers": args.workers, "cache": _cache_dir(args)}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    status = 0
    for name in args.names or RESULTS:
        entry = RESULTS[name]
        data, failures = entry.run(**runner)
        if _warn_failures(failures, out):
            out.emit(f"FAIL {name}: not written")
            status = 1
            continue
        text = entry.report(data)
        out.info(text)
        _write(out, os.path.join(RESULTS_DIR, f"{name}.txt"), text + "\n")
        for problem in entry.check(data):
            out.emit(f"FAIL {name}: {problem}")
            status = 1
        out.info()
    return status


def cmd_flapstorm(args) -> int:
    results = flap_storm_sweep(
        n=args.n, sdn_count=args.n // 2, flaps=args.flaps,
        delays=tuple(args.delays), seed=args.seed,
    )
    args.out.info("Flap storm — controller churn vs recompute discipline")
    args.out.info(f"({args.flaps} flaps at 0.2s intervals, {args.n}-AS clique)")
    for r in results:
        mode = "extend " if r.extend_on_burst else "ratelim"
        args.out.info(
            f"  {mode} delay={r.recompute_delay:4.1f}s: "
            f"recomputes={r.recomputations:3d} flow-mods={r.flow_mods:3d} "
            f"settle-after={r.settle_after_storm:5.1f}s "
            f"ok={r.final_state_correct}"
        )
    return 0 if all(r.final_state_correct for r in results) else 1


#: name -> sweep function for the generic ``sweep`` command.
SWEEPS = {
    "withdrawal": withdrawal_sweep,
    "failover": failover_sweep,
    "announcement": announcement_sweep,
}


def _self_check(args) -> int:
    """Run one tiny clique sweep serially and in parallel and assert the
    per-run convergence times are identical — the runner's determinism
    guarantee, checked on this very machine."""
    # clamp to a tiny grid: this checks the machinery, not the paper.
    n = min(args.n, 6)
    runs = min(args.runs, 3)
    kwargs = dict(
        n=n, sdn_counts=[0, n // 2, n - 1], runs=runs, mrai=1.0,
    )
    out = args.out
    workers = max(2, args.workers)
    out.info(
        f"runner self-check: withdrawal on a {n}-AS clique, "
        f"{runs} runs/point, serial vs {workers} workers"
    )
    serial = run_fraction_sweep(WithdrawalScenario, **kwargs, workers=1)
    parallel = run_fraction_sweep(
        WithdrawalScenario, **kwargs, workers=workers,
    )
    serial_times = [
        (r.sdn_count, r.seed, r.convergence_time)
        for p in serial.points for r in p.runs
    ]
    parallel_times = [
        (r.sdn_count, r.seed, r.convergence_time)
        for p in parallel.points for r in p.runs
    ]
    if serial.failed_runs or parallel.failed_runs:
        out.emit("FAIL: some runs did not complete")
        return 1
    for s, q in zip(serial_times, parallel_times):
        marker = "ok" if s == q else "MISMATCH"
        out.info(
            f"  sdn={s[0]:2d} seed={s[1]:5d}  "
            f"serial {s[2]:.6f}s  parallel {q[2]:.6f}s  {marker}"
        )
    if serial_times != parallel_times:
        out.emit("FAIL: parallel execution changed the results")
        return 1
    out.info(
        f"PASS: {len(serial_times)} runs bit-identical across "
        f"serial and parallel execution"
    )
    return 0


def cmd_sweep(args) -> int:
    """Body of ``fig2``, ``failover``, ``announcement`` and ``sweep``:
    the named commands fix ``args.scenario`` and ``args.title``."""
    if args.self_check:
        return _self_check(args)
    result = SWEEPS[args.scenario](**_runner_kwargs(args))
    out = args.out
    _print_sweep(
        result, args.title.format(scenario=args.scenario, n=args.n), out
    )
    _print_metrics(result, out)
    _print_anatomy(result, out)
    status = _warn_failures(result.failed_runs, out)
    if result.timing is not None:
        t = result.timing
        out.info(
            f"\nexecuted {t.executed}/{t.jobs} trials "
            f"({t.cached} cached, {t.failed} failed) in {t.elapsed:.1f}s "
            f"with {t.workers} worker(s); "
            f"job time {t.total_job_wall:.1f}s (speedup {t.speedup:.2f}x)"
        )
    if args.csv:
        _write(out, args.csv, sweep_to_csv(result), gap=True)
    if args.json:
        _write(out, args.json, sweep_to_json(result))
    return status


def cmd_faults_list(args) -> int:
    out = args.out
    out.emit("canned fault scenarios")
    out.emit("----------------------")
    for name in canned_names():
        canned = get_canned(name)
        schedule = canned.schedule(0)
        out.emit(
            f"  {name:20s} {len(schedule)} event(s), "
            f"reserved AS {','.join(map(str, canned.reserved))}: "
            f"{canned.summary}"
        )
        if args.verbose:
            for event in schedule:
                out.emit(f"      {event.describe()}")
    return 0


class _DigestedFaultRun(FaultSuiteScenario):
    """A fault suite that folds its whole record stream into a digest."""

    def configure(self, exp) -> None:
        self.digest = RecordDigest(exp.net.bus)


def cmd_faults_run(args) -> int:
    out = args.out
    if args.spec:
        try:
            with open(args.spec) as handle:
                schedule = FaultSchedule.from_spec(handle.read())
        except (OSError, ValueError) as exc:  # JSON and FaultSpecError too
            raise SystemExit(f"fault spec {args.spec}: {exc}") from None
        schedule.fault_seed = args.fault_seed
        suite = dict(suite=None, faults=schedule.canonical(),
                     origins=tuple(sorted(args.origins)) or (1,),
                     reserved_legacy=frozenset())
        title = f"fault spec {args.spec}"
    else:
        suite = dict(suite=args.scenario, fault_seed=args.fault_seed)
        title = f"fault scenario {args.scenario!r}"
    out.info(
        f"{title} on a {args.n}-AS clique "
        f"(fault-seed {args.fault_seed}, seed {args.seed}, "
        f"mrai {args.mrai:g}s)"
    )
    config = paper_config(
        seed=args.seed, mrai=args.mrai, recompute_delay=args.recompute_delay,
    )
    all_ok = True
    for fraction in args.fractions:
        scenario = _DigestedFaultRun(
            **suite, strict=False, check_invariants=not args.no_invariants,
        )
        reserved = scenario.reserved_legacy
        sdn_count = min(round(fraction * args.n), args.n - len(reserved))
        topo = scenario.topology(args.n)
        members = sdn_set_for(topo, sdn_count, reserved)
        run_scenario_full(scenario, topo, members, config)
        result = scenario.result
        out.info(
            f"\nSDN fraction {fraction:.2f} ({sdn_count}/{args.n} converted)"
        )
        for report in result.reports:  # finalized: every one measured
            m = report.measurement
            out.info(
                f"  #{report.index} {report.kind:20s} "
                f"t={report.t_fired:8.3f}  " + (
                    "skipped" if report.skipped else
                    f"conv={m.convergence_time:7.3f}s  "
                    f"state={m.state_convergence_time:7.3f}s  "
                    f"updates={m.updates_tx:4d}"
                )
            )
        status = "PASS" if result.ok else f"FAIL ({len(result.violations)})"
        out.emit(
            f"  invariants: {status}  "
            f"settled t={result.t_end:.3f}  "
            f"trace digest {scenario.digest.hexdigest()[:16]}"
        )
        for violation in result.violations:
            out.emit(f"    {violation}")
        all_ok = all_ok and result.ok
    out.emit(f"\n{'PASS' if all_ok else 'FAIL'}: {title}, "
             f"{len(args.fractions)} fraction(s)")
    return 0 if all_ok else 1


def cmd_scenarios(args) -> int:
    out = args.out
    suites = args.suites.split(",") if args.suites else None
    try:
        for suite in suites or ():
            get_canned(suite)  # fail fast on typos
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    results = scenarios_sweep(
        suites=suites, fractions=args.fractions, fault_seed=args.fault_seed,
        **_runner_kwargs(args),
    )
    out.info(
        f"Fault suites vs SDN deployment ({args.n}-AS clique, "
        f"{args.runs} runs/point, whole-suite convergence time)"
    )
    failures = 0
    for suite, result in results.items():
        out.info(f"\n{suite}")
        for point in result.points:
            s = point.stats
            out.info(
                f"  {point.sdn_count:2d}/{result.n_ases} SDN  "
                f"median {s.median:8.2f}s  q1 {s.q1:8.2f}  q3 {s.q3:8.2f}"
            )
        failures += len(result.failed_runs)
        _warn_failures(result.failed_runs, out)
    out.emit(
        f"\n{'PASS' if failures == 0 else 'FAIL'}: "
        f"{len(results)} suite(s), {failures} failed run(s)"
    )
    return 0 if failures == 0 else 1


def cmd_demo(args) -> int:
    out = args.out
    m, snapshot, _ = run_trial_full(
        RunSpec(
            scenario_factory=WithdrawalScenario, topology_factory=clique,
            sdn_count=len(args.sdn), sdn_members=tuple(sorted(args.sdn)),
            **_spec_values(args),
        )
    )
    out.info(
        f"{args.n}-AS clique, SDN members {sorted(args.sdn) or 'none'}: "
        f"withdrawal converged in {m.convergence_time:.1f}s "
        f"({m.updates_tx} updates)"
    )
    if snapshot is not None:
        out.info("\nmetrics")
        out.info(format_snapshot(snapshot))
    return 0


def cmd_trace_run(args) -> int:
    out = args.out
    factory = scenario_registry()[args.scenario]
    probe = factory()
    topology = probe.topology(args.n, clique)
    sdn_count = min(
        args.sdn_count, len(topology) - len(probe.reserved_legacy)
    )
    out.info(
        f"tracing {args.scenario} on a {len(topology)}-AS topology "
        f"({sdn_count} SDN, seed {args.seed}, mrai {args.mrai:g}s)"
    )
    measurement, _, spans = run_trial_full(
        RunSpec(
            **{**_spec_values(args), "sdn_count": sdn_count},
            scenario_factory=factory, topology_factory=clique, spans=True,
        )
    )
    view = dict(
        root_id=measurement.extra.get("event_root_span"),
        max_timeline=args.timeline,
    )
    out.info(
        f"converged in {measurement.convergence_time:.3f}s "
        f"({measurement.updates_tx} updates); {len(spans)} spans\n"
    )
    out.emit(provenance_report(spans, **view))
    if args.jsonl:
        _write(out, args.jsonl, spans_to_jsonl(spans), f" ({len(spans)} spans)")
    if args.chrome:
        _write(
            out, args.chrome, chrome_trace_json(spans),
            " (Chrome trace-event JSON; open in Perfetto or chrome://tracing)",
        )
    if args.markdown:
        _write(out, args.markdown, provenance_markdown(spans, **view))
    return 0


def _load_spans(path: str) -> list:
    with open(path) as handle:
        return [span.to_dict() for span in spans_from_jsonl(handle.read())]


def cmd_trace_report(args) -> int:
    spans = _load_spans(args.spans)
    view = dict(root_id=args.root, max_timeline=args.timeline)
    args.out.emit(provenance_report(spans, **view))
    if args.markdown:
        _write(
            args.out, args.markdown, provenance_markdown(spans, **view),
            gap=True,
        )
    return 0


def cmd_trace_export(args) -> int:
    spans = _load_spans(args.spans)
    text = chrome_trace_json(spans, indent=1 if args.pretty else None)
    if args.output:
        _write(
            args.out, args.output, text,
            f" ({len(spans)} spans; open in Perfetto or chrome://tracing)",
        )
    else:
        args.out.emit(text)
    return 0


def cmd_trace_anatomy(args) -> int:
    """Per-AS convergence waterfall of a captured span file."""
    from .analysis.report import anatomy_of_spans
    from .obs.anatomy import anatomy_json, anatomy_markdown, anatomy_report
    from .obs.anatomy import check_anatomy

    out = args.out
    spans = _load_spans(args.spans)
    anatomy = anatomy_of_spans(spans, root_id=args.root)
    out.emit(anatomy_report(anatomy, node=args.node))
    if args.markdown:
        _write(out, args.markdown, anatomy_markdown(anatomy), gap=True)
    if args.json:
        _write(out, args.json, anatomy_json(anatomy))
    if args.check:
        problems = check_anatomy(anatomy.to_dict())
        if problems:
            out.emit("\nFAIL: attribution does not reconcile")
            for problem in problems:
                out.emit(f"  {problem}")
            return 1
        out.emit(
            "\nPASS: every per-AS attribution sums bit-exactly to its "
            "convergence instant"
        )
    return 0


def cmd_dot(args) -> int:
    args.out.emit(topology_dot(args.topology, sdn_members=sorted(args.sdn)))
    return 0


# ----------------------------------------------------------------------
# runs: the cross-run telemetry registry (docs/telemetry.md)
# ----------------------------------------------------------------------
def _open_registry(args) -> RunRegistry:
    path = _registry_path(args)
    if path != ":memory:" and not os.path.exists(path):
        raise SystemExit(
            f"no registry at {path!r}; record one with --registry on a "
            f"sweep command (or set ${REGISTRY_ENV})"
        )
    return RunRegistry(path)


def cmd_runs_list(args) -> int:
    out = args.out
    with _open_registry(args) as registry:
        if args.sweeps:
            out.emit(
                f"{'sweep':>5}  {'recorded_at':20}  {'scenario':<22} "
                f"{'jobs':>4} {'cached':>6} {'failed':>6} {'elapsed':>8}  rev"
            )
            for sweep in registry.sweeps(
                scenario=args.scenario, limit=args.limit, newest_first=True
            ):
                elapsed = (
                    f"{sweep.elapsed:8.2f}" if sweep.elapsed is not None
                    else f"{'-':>8}"
                )
                out.emit(
                    f"{sweep.sweep_id:>5}  {sweep.recorded_at:20}  "
                    f"{sweep.scenario:<22} {sweep.jobs or 0:>4} "
                    f"{sweep.cached or 0:>6} {sweep.failed or 0:>6} "
                    f"{elapsed}  {sweep.git_rev}"
                )
            return 0
        out.emit(
            f"{'run':>5} {'sweep':>5}  {'recorded_at':20}  {'digest':12}  "
            f"{'label':<28} {'ok':>2} {'wall':>8} {'cached':>6}  rev"
        )
        for run in registry.runs(
            digest=args.digest, scenario=args.scenario,
            limit=args.limit, newest_first=True,
        ):
            out.emit(
                f"{run.run_id:>5} {run.sweep_id or '-':>5}  "
                f"{run.recorded_at:20}  {run.spec_digest[:12]:12}  "
                f"{run.label:<28} {'y' if run.ok else 'N':>2} "
                f"{run.wall_time:8.3f} {'hit' if run.cached else '-':>6}  "
                f"{run.git_rev}"
            )
        counts = registry.counts()
    out.info(
        f"\n{counts['runs']} run(s) ({counts['failed']} failed), "
        f"{counts['sweeps']} sweep(s), {counts['digests']} distinct "
        f"spec digest(s) in {_registry_path(args)}"
    )
    return 0


def cmd_runs_show(args) -> int:
    out = args.out
    with _open_registry(args) as registry:
        run = registry.run(args.run_id)
        if run is None:
            out.emit(f"no run {args.run_id} in {_registry_path(args)}")
            return 1
        out.emit(f"run {run.run_id} — {run.label}")
        out.emit(f"  recorded      {run.recorded_at}")
        out.emit(f"  spec digest   {run.spec_digest}")
        out.emit(
            f"  scenario      {run.scenario} (n={run.n}, "
            f"sdn={run.sdn_count}, seed={run.seed})"
        )
        out.emit(
            f"  code          {run.code_version}"
            + (f" @ {run.git_rev}" if run.git_rev else "")
        )
        status = "ok" if run.ok else f"FAILED: {run.error}"
        out.emit(f"  status        {status}")
        out.emit(
            f"  execution     {run.wall_time:.3f}s on "
            f"{run.worker or '?'} "
            f"({'cache hit' if run.cached else f'{run.attempts} attempt(s)'})"
        )
        if run.measurement:
            out.emit("  measurement")
            for key in sorted(run.measurement):
                out.emit(f"    {key:22} {run.measurement[key]}")
        if run.instants:
            instants = ", ".join(
                f"AS{node}@{t:g}s" for node, t in sorted(
                    run.instants.items(), key=lambda kv: (kv[1], kv[0])
                )
            )
            out.emit(f"  convergence instants ({len(run.instants)} ASes)")
            out.emit(f"    {instants}")
        if run.span_count is not None:
            out.emit(f"  spans         {run.span_count}")
        if run.fault_count is not None:
            out.emit(f"  faults        {run.fault_count}")
        if run.anatomy:
            categories = run.anatomy.get("categories", {})
            critical = run.anatomy.get("critical_node")
            depth = run.anatomy.get("critical_depth")
            out.emit(
                f"  anatomy       critical AS {critical} "
                f"(causal depth {depth})"
            )
            for key in sorted(categories):
                out.emit(f"    {key:22} {categories[key]:.3f}s")
        elif run.span_count:
            out.emit(
                "  anatomy       not recorded (pre-schema-3 row; "
                "re-run to attribute its convergence delay)"
            )
        if run.ok and not run.resources:
            out.emit(
                "  resources     not recorded (pre-schema-2 row; "
                "re-run to account cpu/rss/gc)"
            )
        if run.resources:
            out.emit("  resources")
            labels = {
                "cpu_user_s": ("cpu user", "{:.3f}s"),
                "cpu_sys_s": ("cpu sys", "{:.3f}s"),
                "max_rss_kb": ("peak rss", "{:.0f} KB"),
                "gc_collections": ("gc collections", "{:.0f}"),
                "gc_pause_s": ("gc pause", "{:.4f}s"),
                "events_processed": ("events", "{:.0f}"),
                "events_per_s": ("events/s", "{:.1f}"),
            }
            for key, (label, fmt) in labels.items():
                value = run.resources.get(key)
                if value is not None:
                    out.emit(f"    {label:22} {fmt.format(value)}")
            split = run.resources.get("wall_by_layer_s")
            if split:
                out.emit("    wall by layer")
                for layer, seconds in sorted(
                    split.items(), key=lambda kv: (-kv[1], kv[0])
                ):
                    share = seconds / run.wall_time if run.wall_time else 0.0
                    out.emit(f"      {layer:20} {seconds:.4f}s {share:6.1%}")
    return 0


def _print_run_diff(diff, out: Output, *, verbose: bool) -> None:
    if not diff.same_digest:
        out.emit(
            f"  runs {diff.run_a} and {diff.run_b} have different spec "
            f"digests ({diff.digest_a[:12]} vs {diff.digest_b[:12]}); "
            "deterministic fields are not comparable"
        )
    det = diff.deterministic_mismatches
    for field_diff in det:
        out.emit(
            f"  DRIFT {field_diff.name}: {field_diff.a!r} vs {field_diff.b!r}"
        )
    _print_anatomy_deltas(diff, out)
    for field_diff in diff.timing_mismatches:
        out.info(
            f"  timing {field_diff.name}: {field_diff.a:.3f} vs "
            f"{field_diff.b:.3f} ({field_diff.rel_error:.0%} apart — "
            "informational, wall clocks vary)"
        )
    if verbose:
        for field_diff in diff.fields:
            if field_diff.ok:
                out.info(f"  ok    {field_diff.name}: {field_diff.a!r}")


def _print_anatomy_deltas(diff, out: Output) -> None:
    """Causal-attribution section of ``runs diff``.

    When both rows carry anatomy, every per-category delay is already a
    compared deterministic field; this reprints them side by side so a
    drift reads as "the extra 4.2s is MRAI wait", not just a mismatch.
    """
    rows = [
        f for f in diff.fields
        if f.name.startswith("anatomy.")
        and f.name != "anatomy.critical_depth"
        and isinstance(f.a, (int, float)) and isinstance(f.b, (int, float))
    ]
    if not rows:
        return
    out.info("  causal attribution (critical-path seconds, a vs b)")
    for field_diff in rows:
        category = field_diff.name[len("anatomy."):]
        delta = field_diff.b - field_diff.a
        marker = "  " if field_diff.ok else "!!"
        out.info(
            f"    {marker} {category:16} {field_diff.a:10.3f}  "
            f"{field_diff.b:10.3f}  ({delta:+.3f})"
        )


def cmd_runs_diff(args) -> int:
    from .obs.trends import diff_runs, diff_sweeps

    out = args.out
    with _open_registry(args) as registry:
        if args.sweeps:
            diff = diff_sweeps(registry, args.a, args.b)
            out.info(
                f"sweep {args.a} vs sweep {args.b}: "
                f"{len(diff.pairs)} digest-matched pair(s)"
            )
            for digest in diff.only_in_a:
                out.emit(f"  only in sweep {args.a}: {digest[:12]}")
            for digest in diff.only_in_b:
                out.emit(f"  only in sweep {args.b}: {digest[:12]}")
            bad_pairs = [p for p in diff.pairs if not p.ok]
            for pair in bad_pairs:
                out.emit(f"  runs {pair.run_a} vs {pair.run_b}:")
                _print_run_diff(pair, out, verbose=args.verbose)
            ok = diff.ok
        else:
            run_a, run_b = registry.run(args.a), registry.run(args.b)
            missing = [
                str(i) for i, r in ((args.a, run_a), (args.b, run_b))
                if r is None
            ]
            if missing:
                out.emit(f"no run(s) {', '.join(missing)} in the registry")
                return 1
            diff = diff_runs(run_a, run_b)
            _print_run_diff(diff, out, verbose=args.verbose)
            ok = diff.ok
    out.emit(
        "PASS: deterministic fields identical" if ok
        else "FAIL: deterministic fields drifted (or digests differ)"
    )
    return 0 if ok else 1


def cmd_runs_gc(args) -> int:
    with _open_registry(args) as registry:
        if args.dry_run:
            plan = registry.gc_plan(
                keep_last=args.keep_last, drop_failed=args.drop_failed
            )
            counts = registry.counts()
            args.out.emit(
                f"would delete {len(plan)} of {counts['runs']} run row(s) "
                f"across {counts['digests']} digest(s)"
            )
            for run_id in plan:
                row = registry.run(run_id)
                if row is None:
                    continue
                status = "ok" if row.ok else "FAILED"
                args.out.emit(
                    f"  run {run_id}: {row.scenario} "
                    f"digest={row.spec_digest[:12]} {status} "
                    f"recorded {row.recorded_at}"
                )
            return 0
        deleted = registry.gc(
            keep_last=args.keep_last, drop_failed=args.drop_failed
        )
        counts = registry.counts()
    args.out.emit(
        f"deleted {deleted} run row(s); {counts['runs']} run(s) across "
        f"{counts['digests']} digest(s) remain"
    )
    return 0


def cmd_serve(args) -> int:
    from .service import run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=_cache_dir(args, default=DEFAULT_CACHE_DIR),
        registry_path=_registry_path(args),
        concurrency=args.concurrency,
        max_queue=args.max_queue,
        quota=args.quota,
    )

    def announce(host: str, port: int) -> None:
        # Always emitted (and flushed): the smoke harness parses this
        # line to learn the ephemeral port when started with --port 0.
        args.out.emit(f"serving on http://{host}:{port}")
        args.out.stream.flush()
        args.out.info(
            f"cache: {config.cache_dir or 'off'}; "
            f"registry: {config.registry_path}; "
            f"workers: {args.concurrency}; queue: {args.max_queue}; "
            f"quota: {args.quota}/client"
        )

    run_service(config, announce=announce)
    return 0


def _service_client(args):
    from .service import ServiceClient

    return ServiceClient(
        args.host, args.port,
        client_id=args.client_id, timeout=args.timeout,
    )


def _load_payload(source: str) -> dict:
    import json as _json

    text = sys.stdin.read() if source == "-" else None
    if text is None:
        if os.path.exists(source):
            with open(source) as handle:
                text = handle.read()
        else:
            text = source  # inline JSON
    try:
        return _json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"payload is not valid JSON: {exc}")


def _watch_job(client, digest: str, out: Output) -> dict:
    def on_event(name, payload):
        if name == "job_started":
            out.info(f"[{digest[:12]}] started: {payload.get('label', '')}")
        elif name == "job_finished":
            record = payload.get("record", {})
            status = "ok" if record.get("ok") else "failed"
            if record.get("cached"):
                status = "cached"
            out.info(f"[{digest[:12]}] finished: {status}")

    return client.watch(digest, on_event=on_event)


def cmd_client_submit(args) -> int:
    import json as _json

    from .service import ServiceClientError

    payload = _load_payload(args.payload)
    if "spec" not in payload and "grid" not in payload:
        payload = {"spec": payload}
    with _service_client(args) as client:
        try:
            jobs = client.submit(payload)
        except ServiceClientError as exc:
            args.out.emit(f"submission rejected: {exc}")
            if exc.retry_after is not None:
                args.out.emit(f"retry after {exc.retry_after:.0f}s")
            if exc.detail:
                for line in exc.detail:
                    args.out.emit(f"  - {line}")
            return 1
        for job in jobs:
            args.out.emit(f"{job['digest']}  {job['state']}  {job['label']}")
        if not args.watch:
            return 0
        failed = 0
        for job in jobs:
            final = _watch_job(client, job["digest"], args.out)
            record = final.get("record", {})
            if not record.get("ok"):
                failed += 1
            args.out.emit(
                _json.dumps(
                    {"digest": job["digest"], **record}, sort_keys=True
                )
            )
    return 1 if failed else 0


def cmd_client_status(args) -> int:
    import json as _json

    with _service_client(args) as client:
        status = client.status(args.digest)
    args.out.emit(_json.dumps(status, sort_keys=True))
    return 0


def cmd_client_result(args) -> int:
    with _service_client(args) as client:
        body = client.result_bytes(args.digest)
    args.out.stream.write(body.decode("utf-8"))
    return 0


def cmd_client_watch(args) -> int:
    import json as _json

    with _service_client(args) as client:
        final = _watch_job(client, args.digest, args.out)
    args.out.emit(_json.dumps(final, sort_keys=True))
    record = final.get("record", {})
    return 0 if record.get("ok") else 1


def cmd_client_cancel(args) -> int:
    import json as _json

    with _service_client(args) as client:
        cancelled = client.cancel(args.digest)
    args.out.emit(_json.dumps(cancelled, sort_keys=True))
    return 0


def cmd_runs_dashboard(args) -> int:
    from .obs.dashboard import render_dashboard

    with _open_registry(args) as registry:
        html = render_dashboard(
            registry, title=args.title, last_sweeps=args.last_sweeps
        )
    if args.output:
        _write(
            args.out, args.output, html,
            f" ({len(html)} bytes, self-contained — open in any browser)",
        )
    else:
        args.out.emit(html)
    return 0


# ----------------------------------------------------------------------
# cache: result-cache introspection and maintenance
# ----------------------------------------------------------------------
def _open_cache(args):
    from .runner import ResultCache

    cache_dir = _cache_dir(args)
    if not cache_dir:
        raise SystemExit(
            f"no cache directory: pass --cache-dir or set ${CACHE_DIR_ENV}"
        )
    return ResultCache(cache_dir)


def cmd_cache_stats(args) -> int:
    cache = _open_cache(args)
    stats = cache.stats()
    out = args.out
    out.emit(f"result cache {cache.directory}")
    out.emit(f"  entries   {stats.entries}")
    out.emit(f"  size      {stats.total_bytes} bytes")
    out.emit(f"  code      {cache.code_version}")
    return 0


def cmd_cache_prune(args) -> int:
    cache = _open_cache(args)
    before = cache.stats()
    removed = cache.prune()
    after = cache.stats()
    args.out.emit(
        f"pruned {removed} stale entr{'y' if removed == 1 else 'ies'} "
        f"({before.entries} -> {after.entries}, "
        f"{before.total_bytes - after.total_bytes} bytes reclaimed)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid BGP-SDN emulation framework (SIGCOMM'14 repro)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress informational output (artifacts and warnings "
             "still print; exit codes carry pass/fail)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def runner_args(p):
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial; results are "
                            "identical at any count)")
        p.add_argument("--cache-dir", type=str, default=None,
                       help="result-cache directory (also via "
                            f"${CACHE_DIR_ENV}); re-runs only execute "
                            "missing trials")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore any result cache for this run")

    def sweep_args(p, **defaults):
        _spec_flags(
            p, "n", "mrai", "recompute_delay", "trace_level", "metrics",
            "anatomy", n=16, **defaults,
        )
        p.add_argument("--runs", type=int, default=10, help="runs per point")
        p.add_argument("--csv", type=str, default=None,
                       help="write per-run results as CSV")
        p.add_argument("--json", type=str, default=None,
                       help="write summary + runs as JSON")
        runner_args(p)
        p.add_argument("--progress", action="store_true",
                       help="log one line per trial to stderr")
        p.add_argument("--registry", type=str, default=None,
                       help="record every trial into this SQLite telemetry "
                            f"registry (also via ${REGISTRY_ENV}; "
                            "inspect with the runs subcommands)")

    for name, scenario, title, summary in (
        ("fig2", "withdrawal", "Fig. 2 — withdrawal on a {n}-AS clique",
         "withdrawal sweep (paper Fig. 2)"),
        ("failover", "failover",
         "§4 — fail-over (dual-homed origin, {n}-AS clique)",
         "fail-over sweep (paper §4)"),
        ("announcement", "announcement", "§4 — announcement ({n}-AS clique)",
         "announcement sweep (paper §4)"),
    ):
        p = sub.add_parser(name, help=summary)
        sweep_args(p)
        p.set_defaults(
            func=cmd_sweep, scenario=scenario, title=title, self_check=False,
        )

    p = sub.add_parser(
        "sweep",
        help="generic parallel sweep runner (and --self-check)",
    )
    p.add_argument("--scenario", choices=sorted(SWEEPS), default="withdrawal")
    p.add_argument(
        "--self-check", action="store_true",
        help="run a tiny clique sweep serially and in parallel and "
             "assert identical per-run convergence times",
    )
    sweep_args(p)
    p.set_defaults(func=cmd_sweep, title="{scenario} sweep ({n}-AS clique)")

    p = sub.add_parser("subcluster", help="sub-cluster split experiment")
    _spec_flags(p, "seed")
    p.set_defaults(func=cmd_subcluster)

    p = sub.add_parser("topologies", help="topology-family comparison")
    _spec_flags(p, "n", "mrai", n=16)
    p.add_argument("--runs", type=int, default=3)
    runner_args(p)
    p.set_defaults(func=cmd_topologies)

    p = sub.add_parser(
        "reproduce",
        help="regenerate and check the committed benchmarks/results files",
    )
    p.add_argument("names", nargs="*", type=_result_name, metavar="NAME",
                   help="results to regenerate, by file name without "
                        ".txt (default: all)")
    runner_args(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("flapstorm", help="bursty-input controller ablation")
    _spec_flags(p, "n", "seed", n=8)
    p.add_argument("--flaps", type=int, default=10)
    p.add_argument("--delays", type=float, nargs="+", default=[0.1, 0.5, 2.0])
    p.set_defaults(func=cmd_flapstorm)

    p = sub.add_parser(
        "faults", help="fault-injection scenarios with invariant checking"
    )
    fsub = p.add_subparsers(dest="faults_command", required=True)

    fp = fsub.add_parser("list", help="list the canned fault scenarios")
    fp.add_argument("-v", "--verbose", action="store_true",
                    help="also show each scenario's event schedule")
    fp.set_defaults(func=cmd_faults_list)

    fp = fsub.add_parser(
        "run",
        help="run one fault scenario across SDN fractions, "
             "checking invariants",
    )
    fp.add_argument("--scenario", choices=canned_names(),
                    default="gateway-outage")
    fp.add_argument("--spec", type=str, default=None,
                    help="JSON fault-schedule file (overrides --scenario)")
    fp.add_argument("--origins", type=_parse_sdn, default="1",
                    help="with --spec: ASes that announce their /24 "
                         "before the faults start (comma list / ranges)")
    fp.add_argument("--fractions", type=_parse_fractions, default="0,0.5,1",
                    help="SDN deployment fractions to compare")
    fp.add_argument("--fault-seed", type=int, default=0,
                    help="seed for fault timing jitter; same schedule + "
                         "seed reproduces the identical trace")
    _spec_flags(
        fp, "n", "seed", "mrai", "recompute_delay", n=16, seed=1, mrai=5.0
    )
    fp.add_argument("--no-invariants", action="store_true",
                    help="skip invariant checking (timing only)")
    fp.set_defaults(func=cmd_faults_run)

    p = sub.add_parser(
        "scenarios",
        help="fault-suite sweep: canned suites vs SDN fraction",
    )
    p.add_argument("--suites", type=str, default="",
                   help="comma list of canned suites (default: all)")
    p.add_argument("--fractions", type=_parse_fractions, default="0,0.5,1")
    p.add_argument("--fault-seed", type=int, default=0)
    sweep_args(p, mrai=5.0)
    p.set_defaults(func=cmd_scenarios, runs=3)

    p = sub.add_parser("demo", help="one withdrawal run, custom SDN set")
    p.add_argument("--sdn", type=_parse_sdn, default="",
                   help="comma list / ranges, e.g. 5,6,7 or 5-8")
    _spec_flags(p, "n", "seed", "mrai", "trace_level", "metrics", n=8)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser(
        "trace",
        help="causal provenance tracing: traced runs, reports, exports",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser(
        "run",
        help="run one scenario with spans on and print its causal report",
    )
    tp.add_argument("--scenario", choices=scenario_names(),
                    default="withdrawal")
    _spec_flags(
        tp, "n", "sdn_count", "seed", "mrai", "recompute_delay", n=16
    )
    tp.add_argument("--timeline", type=int, default=20,
                    help="causal-timeline rows to show")
    tp.add_argument("--jsonl", type=str, default=None,
                    help="write the run's spans as JSONL")
    tp.add_argument("--chrome", type=str, default=None,
                    help="write Chrome trace-event JSON (open in "
                         "Perfetto or chrome://tracing)")
    tp.add_argument("--markdown", type=str, default=None,
                    help="write a Markdown run report")
    tp.set_defaults(func=cmd_trace_run)

    tp = tsub.add_parser(
        "report", help="causal report from a saved JSONL span file"
    )
    tp.add_argument("spans", help="JSONL span file (trace run --jsonl)")
    tp.add_argument("--root", type=int, default=None,
                    help="root span id (default: largest causal tree)")
    tp.add_argument("--timeline", type=int, default=20)
    tp.add_argument("--markdown", type=str, default=None,
                    help="also write the report as Markdown")
    tp.set_defaults(func=cmd_trace_report)

    tp = tsub.add_parser(
        "export",
        help="convert a JSONL span file to Chrome trace-event JSON",
    )
    tp.add_argument("spans", help="JSONL span file (trace run --jsonl)")
    tp.add_argument("-o", "--output", type=str, default=None,
                    help="output path (default: stdout)")
    tp.add_argument("--pretty", action="store_true",
                    help="indent the JSON output")
    tp.set_defaults(func=cmd_trace_export)

    tp = tsub.add_parser(
        "anatomy",
        help="per-AS convergence waterfall: attribute every delay on "
             "the critical causal path to its mechanism",
    )
    tp.add_argument("spans", help="JSONL span file (trace run --jsonl)")
    tp.add_argument("--root", type=int, default=None,
                    help="root span id (default: largest causal tree)")
    tp.add_argument("--node", type=str, default=None,
                    help="AS whose waterfall to expand (default: the "
                         "last-converging AS)")
    tp.add_argument("--markdown", type=str, default=None,
                    help="write the waterfall as Markdown")
    tp.add_argument("--json", type=str, default=None,
                    help="write the attribution payload as JSON")
    tp.add_argument("--check", action="store_true",
                    help="verify every per-AS attribution sums "
                         "bit-exactly to its convergence instant "
                         "(exit 1 otherwise)")
    tp.set_defaults(func=cmd_trace_anatomy)

    p = sub.add_parser("dot", help="Graphviz export of a topology")
    p.add_argument("--topology", type=_parse_topology, default="clique:8",
                   help="kind:size, e.g. clique:16, ba:20, ring:6")
    p.add_argument("--sdn", type=_parse_sdn, default="")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser(
        "runs",
        help="cross-run telemetry registry: list, show, diff, gc, dashboard",
    )
    rsub = p.add_subparsers(dest="runs_command", required=True)

    def registry_arg(rp):
        rp.add_argument(
            "--registry", type=str, default=None,
            help="registry path (default: "
                 f"${REGISTRY_ENV} or {DEFAULT_REGISTRY_PATH})",
        )

    rp = rsub.add_parser("list", help="recorded runs (or --sweeps), newest first")
    registry_arg(rp)
    rp.add_argument("--sweeps", action="store_true",
                    help="list sweep aggregates instead of runs")
    rp.add_argument("--scenario", type=str, default=None)
    rp.add_argument("--digest", type=str, default=None,
                    help="only runs of this spec digest")
    rp.add_argument("--limit", type=int, default=30)
    rp.set_defaults(func=cmd_runs_list)

    rp = rsub.add_parser("show", help="everything recorded about one run")
    registry_arg(rp)
    rp.add_argument("run_id", type=int)
    rp.set_defaults(func=cmd_runs_show)

    rp = rsub.add_parser(
        "diff",
        help="compare two runs (or --sweeps): deterministic fields must "
             "match exactly, timing gets a tolerance band",
    )
    registry_arg(rp)
    rp.add_argument("a", type=int, help="run id (or sweep id with --sweeps)")
    rp.add_argument("b", type=int)
    rp.add_argument("--sweeps", action="store_true",
                    help="treat A and B as sweep ids and diff every "
                         "digest-matched run pair")
    rp.add_argument("-v", "--verbose", action="store_true",
                    help="also list the fields that matched")
    rp.set_defaults(func=cmd_runs_diff)

    rp = rsub.add_parser(
        "dashboard", help="render the registry as one static HTML page"
    )
    registry_arg(rp)
    rp.add_argument("-o", "--output", type=str, default=None,
                    help="output path (default: stdout)")
    rp.add_argument("--title", type=str, default="repro telemetry")
    rp.add_argument("--last-sweeps", type=int, default=20,
                    help="historical sweeps to chart")
    rp.set_defaults(func=cmd_runs_dashboard)

    rp = rsub.add_parser("gc", help="trim registry history per digest")
    registry_arg(rp)
    rp.add_argument("--keep-last", type=int, default=20,
                    help="newest runs to keep per spec digest")
    rp.add_argument("--drop-failed", action="store_true",
                    help="also delete every failed run")
    rp.add_argument("--dry-run", action="store_true",
                    help="delete nothing; list the runs that would go")
    rp.set_defaults(func=cmd_runs_gc)

    p = sub.add_parser(
        "serve",
        help="run the emulation service (HTTP control plane over the "
             "sweep runner; see docs/service.md)",
    )
    p.add_argument("--host", type=str, default=ServiceConfig.host)
    p.add_argument("--port", type=int, default=ServiceConfig.port,
                   help="listen port (0 picks an ephemeral port, "
                        "announced on stdout)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="result-cache directory every answer comes from "
                        f"(default: ${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR})")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a result cache (every submission "
                        "executes)")
    p.add_argument("--registry", type=str, default=None,
                   help="telemetry registry every run records into "
                        f"(default: ${REGISTRY_ENV} or "
                        f"{DEFAULT_REGISTRY_PATH})")
    p.add_argument("--concurrency", type=int,
                   default=ServiceConfig.concurrency,
                   help="jobs executed at once (worker processes)")
    p.add_argument("--max-queue", type=int, default=ServiceConfig.max_queue,
                   help="queued jobs before submissions get 429")
    p.add_argument("--quota", type=int, default=ServiceConfig.quota,
                   help="active jobs allowed per client id")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running service: submit, watch, fetch results",
    )
    p.add_argument("--host", type=str, default=ServiceConfig.host)
    p.add_argument("--port", type=int, default=ServiceConfig.port)
    p.add_argument("--client-id", type=str, default="cli",
                   help="client identity for quota accounting "
                        "(X-Repro-Client header)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-request timeout in seconds")
    clsub = p.add_subparsers(dest="client_command", required=True)

    clp = clsub.add_parser(
        "submit",
        help="submit a spec/grid payload (file path, '-' for stdin, "
             "or inline JSON)",
    )
    clp.add_argument("payload",
                     help='e.g. \'{"scenario": "withdrawal", "n": 8, '
                          '"sdn_count": 4, "seed": 7}\'')
    clp.add_argument("--watch", action="store_true",
                     help="stream progress until every job finishes")
    clp.set_defaults(func=cmd_client_submit)

    clp = clsub.add_parser("status", help="one job's state")
    clp.add_argument("digest")
    clp.set_defaults(func=cmd_client_status)

    clp = clsub.add_parser(
        "result", help="a finished job's full result record (JSON)"
    )
    clp.add_argument("digest")
    clp.set_defaults(func=cmd_client_result)

    clp = clsub.add_parser(
        "watch", help="stream a job's SSE progress to completion"
    )
    clp.add_argument("digest")
    clp.set_defaults(func=cmd_client_watch)

    clp = clsub.add_parser("cancel", help="cancel a queued/running job")
    clp.add_argument("digest")
    clp.set_defaults(func=cmd_client_cancel)

    p = sub.add_parser(
        "cache", help="result-cache introspection and maintenance"
    )
    csub = p.add_subparsers(dest="cache_command", required=True)

    cp = csub.add_parser("stats", help="entry count and size of a cache")
    cp.add_argument("--cache-dir", type=str, default=None,
                    help=f"cache directory (also via ${CACHE_DIR_ENV})")
    cp.set_defaults(func=cmd_cache_stats)

    cp = csub.add_parser(
        "prune",
        help="drop corrupt entries and entries from other code versions",
    )
    cp.add_argument("--cache-dir", type=str, default=None,
                    help=f"cache directory (also via ${CACHE_DIR_ENV})")
    cp.set_defaults(func=cmd_cache_prune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.out = Output(quiet=args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
