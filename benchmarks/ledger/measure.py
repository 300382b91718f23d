"""One workload, one fresh process: set up, run rounds for the given
seconds, check the outputs, print one JSON line.

``run.py`` spawns this file once per workload (and once more per extra
set-up sample), so ``ru_maxrss`` is that workload's alone, intern pools
start empty and no workload warms another's caches.  Untraced, the line
carries the end-to-end metrics; traced, the per-layer metrics:

1. one *reference* round runs untraced;
2. the tracer is installed and rounds run until the clock is up —
   round 0 again first where rounds are independent, so traced and
   untraced walls compare on identical work and the deterministic
   counts must repeat (the storm's cycles share one built network, so
   there the traced rounds go on from cycle 1);
3. workload extras run (bare trials, the in-process service layers).

GC stays on throughout: users pay for it, and ``gc.*`` accounts for it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO_ROOT / "src"))

from reference import HostReference  # noqa: E402
from tracer import RESIDUAL, Tracer  # noqa: E402
from workloads import OUT_DIR, SIZES, WORKLOADS, Op, median  # noqa: E402


def run_rounds(workload, seconds: float, tracer=None, first: int = 0) -> tuple:
    """Whole rounds, numbered from ``first``, until ``seconds`` have been
    measured (at least one).  Returns the rounds and, per round, the
    tracer's trial rows."""
    rounds: List[List[Op]] = []
    rows: List[List[Dict[str, Any]]] = []
    measured = 0.0
    while not rounds or measured < seconds:
        first_row = len(tracer.trials) if tracer is not None else 0
        ops = workload.run_round(first + len(rounds), tracer)
        rounds.append(ops)
        rows.append(tracer.trials[first_row:] if tracer is not None else [])
        measured += sum(op.wall_s for op in ops)
    return rounds, rows


def flatten(rounds) -> List[Op]:
    return [op for ops in rounds for op in ops]


def per_unit_s(ops: List[Op]) -> float:
    """Wall seconds per simulated event (per operation when the
    operations simulate nothing themselves)."""
    wall = sum(op.wall_s for op in ops)
    return wall / (sum(op.events for op in ops) or len(ops))


def one_pass(ops: List[Op]) -> tuple:
    """``(wall seconds, events per second)`` of one pass over the
    workload's operation kinds, every kind entering at its median.

    The host slows down in bursts of a second or two, far longer than
    an operation and shorter than a run.  A pooled total would carry
    every burst; the median over the operations of one kind — which do
    the same work at any seed — drops the ones a burst hit.  Kinds
    differ in cost per event, so each kind's median cost is weighted by
    its mean event count.  Raw wall times: ``end_to_end`` brings them to
    nominal host speed.
    """
    kinds: Dict[str, List[Op]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    wall = events = event_wall = 0.0
    for group in kinds.values():
        wall += median(op.wall_s for op in group)
        costs = [op.wall_s / op.events for op in group if op.events]
        if costs:
            mean_events = statistics.fmean(
                op.events for op in group if op.events
            )
            events += mean_events
            event_wall += mean_events * median(costs)
    return wall, events / event_wall if event_wall else 0.0


def percentile(values: List[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(workload, ops: List[Op], setup_s: float) -> tuple:
    """``(metrics, raw)``: the end-to-end metrics at nominal host speed
    — times divided by the run's median host slowness, which follows
    the minutes-long shifts no in-run median can (``reference.py``) —
    and the raw readings they were made from."""
    pass_s, events_per_s = one_pass(ops)
    slowness = median(workload.slowness)
    raw = {
        "op_ms_p50": pass_s * 1e3, "events_per_s": events_per_s,
        "host_slowness": slowness,
    }
    metrics = {
        "setup_s": setup_s,
        "op_ms_p50": pass_s * 1e3 / slowness,
        "events_per_s": events_per_s * slowness,
        "peak_rss_mib": workload.peak_rss_mib(),
    }
    return metrics, raw


def per_layer(
    workload, tracer, reference: List[Op], rounds: List[List[Op]],
    rows_per_round: List[List[Dict[str, Any]]], extras: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric; zero where the workload has no such layer."""
    ops = flatten(rounds)
    rows = [row for round_rows in rows_per_round for row in round_rows]
    wall = sum(row["wall_s"] for row in rows)
    layer_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for row in rows:
        for layer, value in row["layers"].items():
            layer_s[layer] = layer_s.get(layer, 0.0) + value
        for layer, value in row["calls"].items():
            calls[layer] = calls.get(layer, 0) + value
    calls0: Dict[str, int] = {}
    for row in rows_per_round[0]:
        for layer, value in row["calls"].items():
            calls0[layer] = calls0.get(layer, 0) + value
    measured = {row["trial"] for row in rows}
    pauses = [p for p in tracer.gc_pauses if p[2] in measured]
    recompute_walls = [w for w, t in tracer.recompute_walls if t in measured]
    counts = workload.counts
    reference_wall = sum(op.wall_s for op in reference)

    def share(*layers: str) -> float:
        return sum(layer_s.get(layer, 0.0) for layer in layers) / wall

    def unit(layer: str, scale: float) -> float:
        n = calls.get(layer, 0)
        return layer_s.get(layer, 0.0) / n * scale if n else 0.0

    def spans_s(name: str) -> List[float]:
        return [
            s["end"] - s["start"] for s in tracer.spans
            if s["name"] == name and s["trial"] in measured
        ]

    def detail(key: str) -> List[float]:
        out: List[float] = []
        for op in ops:
            value = op.detail.get(key)
            if isinstance(value, list):
                out.extend(value)
            elif value is not None:
                out.append(value)
        return out

    setup = getattr(workload, "setup_detail", {})
    build_s = setup.get("build_s", median(spans_s("Experiment.build")))
    links = setup.get("links") or getattr(workload, "n", 0) * (
        getattr(workload, "n", 0) - 1) // 2
    phase = {
        name: sum(op.events for op in reference if op.kind == name)
        / (sum(op.wall_s for op in reference if op.kind == name) or 1.0)
        for name in ("announce", "withdraw")
    }
    bare = extras.get("bare_round_wall_s", 0.0)
    scraped = extras.get("scrape", {})
    jobs = len(ops) if scraped else 0
    metrics = {
        # -- eventsim (kernel) ------------------------------------------
        "eventsim.events": calls0.get("eventsim", 0),
        "eventsim.queue_ns_per_event": unit("eventsim", 1e9),
        "eventsim.queue_share": share("eventsim"),
        "eventsim.pending_foreground_max": max(
            row["pending_foreground_max"] for row in rows
        ),
        # -- eventsim.bus -----------------------------------------------
        "eventsim.bus.records": calls0.get("eventsim.bus", 0),
        "eventsim.bus.ns_per_record": unit("eventsim.bus", 1e9),
        "eventsim.bus.share": share("eventsim.bus"),
        "eventsim.bus.retained_share": (
            calls.get("obs.tracelog", 0) / calls["eventsim.bus"]
            if calls.get("eventsim.bus") else 0.0
        ),
        "eventsim.bus.records_per_s": (
            calls0.get("eventsim.bus", 0) / reference_wall
        ),
        # -- net --------------------------------------------------------
        "net.transmits": calls0.get("net", 0),
        "net.us_per_message": unit("net", 1e6),
        "net.share": share("net"),
        # -- bgp --------------------------------------------------------
        "bgp.updates_rx": counts.get("updates_rx", 0),
        "bgp.decisions": counts.get("decisions", 0),
        "bgp.us_per_message": unit("bgp", 1e6),
        "bgp.share": share("bgp"),
        "bgp.decision_change_share": (
            counts.get("fib_changes", 0) / counts["decisions"]
            if counts.get("decisions") else 0.0
        ),
        "bgp.announce_events_per_s": phase["announce"],
        "bgp.withdraw_events_per_s": phase["withdraw"],
        # -- sdn / controller -------------------------------------------
        "sdn.messages": calls0.get("sdn", 0),
        "sdn.share": share("sdn"),
        "controller.recomputes": sum(
            row["recomputes"] for row in rows_per_round[0]
        ),
        "controller.recompute_ms_p50": median(recompute_walls) * 1e3,
        "controller.compute_share": share("controller.compute"),
        "controller.share": share(
            "controller", "controller.compute", "controller.recompute"
        ),
        # -- topology / framework ---------------------------------------
        "topology.generate_s": setup.get("generate_s", 0.0),
        "framework.build_s": build_s,
        "framework.build_us_per_link": build_s / links * 1e6 if links else 0.0,
        "framework.start_s": setup.get(
            "start_s", median(spans_s("Experiment.start"))
        ),
        "framework.share": share("framework"),
        # -- gc (host) --------------------------------------------------
        "gc.pause_share": share("gc"),
        "gc.collections_per_op": len(pauses) / len(ops),
        "gc.gen2_pause_s_max": max(
            (p[1] for p in pauses if p[0] == 2), default=0.0
        ),
        "gc.setup_pause_s": extras["gc.setup_pause_s"],
        "gc.setup_gen2_pause_s": extras["gc.setup_gen2_pause_s"],
        # -- obs --------------------------------------------------------
        "obs.spans": counts.get("spans", 0),
        "obs.span_tracker_share": share("obs.span_tracker"),
        "obs.tracelog_share": share("obs.tracelog"),
        "obs.metrics_subscriber_share": share("obs.metrics_subscriber"),
        "obs.anatomy_share": share("obs.anatomy"),
        "obs.observer_overhead_ratio": reference_wall / bare if bare else 0.0,
        "obs.registry_record_ms_p50": extras.get(
            "obs.registry_record_ms_p50", 0.0),
        # -- runner / config --------------------------------------------
        "runner.execute_spec_overhead_ms": extras.get(
            "runner.execute_spec_overhead_ms",
            layer_s.get("runner", 0.0) / len(ops) * 1e3,
        ),
        "runner.dispatch_overhead_ms_p50": extras.get(
            "runner.dispatch_overhead_ms_p50", 0.0),
        "runner.cache_put_ms_p50": extras.get("runner.cache_put_ms_p50", 0.0),
        "runner.cache_get_ms_p50": extras.get("runner.cache_get_ms_p50", 0.0),
        "runner.pool_speedup_2w": extras.get("runner.pool_speedup_2w", 0.0),
        "config.specio_us_p50": extras.get("config.specio_us_p50", 0.0),
        # -- service (client-side spans and /metrics deltas) -------------
        "service.submit_ms_p50": median(detail("submit_s")) * 1e3,
        "service.status_ms_p50": median(detail("status_s")) * 1e3,
        "service.result_ms_p50": median(detail("result_s")) * 1e3,
        "service.op_ms_p95": (
            percentile([op.wall_s for op in ops], 95) * 1e3 if scraped else 0.0
        ),
        "service.jobs_per_s": (
            jobs / sum(op.wall_s for op in ops) if jobs else 0.0
        ),
        "service.polls_per_job": len(detail("status_s")) / jobs if jobs else 0.0,
        "service.http_requests_per_job": (
            scraped.get("requests", 0.0) / jobs if jobs else 0.0
        ),
        "service.server_route_ms_mean": scraped.get("submit_route_ms_mean", 0.0),
        "service.rejected": scraped.get("rejected", 0.0),
        # -- host / tracer ----------------------------------------------
        "host.cpu_share": (
            sum(op.cpu_s for op in reference) / reference_wall
        ),
        "host.slowness": median(workload.slowness),
        "trace.overhead_ratio": per_unit_s(rounds[0]) / per_unit_s(reference),
        "trace.self_share": share("tracer"),
        "trace.residual_share": share(RESIDUAL),
    }
    return {name: float(value) for name, value in metrics.items()}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def measure(args) -> Dict[str, Any]:
    sizes = SIZES["smoke" if args.smoke else "full"]
    workload = WORKLOADS[args.workload](args.seed, sizes)
    if args.fail_op is not None:
        inject_failure(workload, args.fail_op)
    setup_gc = {"gc.setup_pause_s": 0.0, "gc.setup_gen2_pause_s": 0.0}
    try:
        with timed_collections(setup_gc) if args.trace else contextlib.nullcontext():
            workload.setup()
        setup_raw_s = perf_counter() - args.spawned_at
        # The yardstick is the benchmark's, not the program's: it is
        # built after the set-up it will be held against.
        workload.reference = HostReference()
        setup_s = setup_raw_s / median(
            workload.reference.sample() for _ in range(5)
        )
        raw: Dict[str, float] = {"setup_s": setup_raw_s}
        if args.setup_only:
            return {"setup_s": setup_s, "raw": raw}
        if not args.trace:
            ops = flatten(run_rounds(workload, args.seconds)[0])
            workload.check(ops)
            metrics, readings = end_to_end(workload, ops, setup_s)
            raw.update(readings)
        else:
            reference = workload.run_round(0)
            reference_counts = dict(workload.counts)
            if workload.replays_round0:
                workload.counts.clear()
            tracer = Tracer().install()
            try:
                workload.attach(tracer)
                rounds, rows_per_round = run_rounds(
                    workload, args.seconds, tracer,
                    first=0 if workload.replays_round0 else 1,
                )
                extras = {**setup_gc, **workload.traced_extras(tracer)}
            finally:
                tracer.uninstall()
            ops = reference + flatten(rounds)
            workload.check(ops)
            workload._expect(
                workload.counts == reference_counts,
                f"round 0 counts changed under the tracer: "
                f"{reference_counts} -> {workload.counts}",
            )
            closure = max(
                abs(sum(row["layers"].values()) - row["wall_s"]) / row["wall_s"]
                for round_rows in rows_per_round for row in round_rows
            )
            workload._expect(
                closure < 0.01,
                f"layer self times + residual miss trial wall by {closure:.2%}",
            )
            metrics = per_layer(
                workload, tracer, reference, rounds, rows_per_round, extras
            )
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{args.workload}.jsonl")
        # A failed check fails its operation when it has one, so count
        # whichever is larger: failed operations or recorded problems.
        failed = max(
            sum(1 for op in ops if not op.ok), len(workload.problems)
        )
        return {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": len(ops) + workload.checks,
            "failed": failed,
            "problems": workload.problems[:20],
            "counts": workload.counts,
            "ops": len(ops),
            "wall_s": sum(op.wall_s for op in ops),
            "cpu_s": sum(op.cpu_s for op in ops),
            "metrics": metrics,
            "raw": raw,
        }
    finally:
        workload.close()


@contextlib.contextmanager
def timed_collections(totals: Dict[str, float]):
    """Add the pauses of every collection (and of the full ones) made
    while the block runs — what the garbage collector cost the set-up."""
    started = [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = perf_counter()
            return
        pause = perf_counter() - started[0]
        totals["gc.setup_pause_s"] += pause
        if info.get("generation") == 2:
            totals["gc.setup_gen2_pause_s"] += pause

    gc.callbacks.append(on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(on_gc)


def inject_failure(workload, position: int) -> None:
    """Self-test hook: make operation ``position`` of round 0 report
    failure, to show that a failure reaches ``failed`` and the exit code."""
    original = workload.run_round

    def failing_round(index, tracer=None):
        ops = original(index, tracer)
        if index == 0:
            ops[position % len(ops)].ok = False
            workload.problems.append(f"injected failure at op {position}")
        return ops

    workload.run_round = failing_round


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fail-op", type=int, default=None)
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="the parent's perf_counter() reading just before it spawned "
             "this process (CLOCK_MONOTONIC is shared), so set-up time "
             "includes interpreter start and imports",
    )
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = perf_counter()
    print(json.dumps(measure(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
