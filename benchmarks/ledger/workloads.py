"""The benchmark's workloads: what each one runs, times and checks.

Every workload is a sequence of *rounds*; a round is a fixed, balanced
batch of operations (all nine Fig. 2 fractions at one seed; one
announce + withdraw storm cycle; a batch of service round trips), so a
run that is cut by the clock after any whole round still measured the
same mix.  An operation is timed alone — checks run between operations,
outside every timed region — and reported as an :class:`Op`.

Inputs come from ``--seed`` only; the emulator sees ``RunSpec`` objects
and JSON payloads, never the seed argument itself.  ``SIZES`` holds the
full and the ``--smoke`` shape of every workload.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pathlib
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: full and smoke shapes.  Topology size and the fraction list are the
#: paper's; only seeds / cycles / request counts follow the clock.
SIZES = {
    "full": {
        "clique_n": 16, "caida_n": 5000,
        "miss_batch": 10, "hit_batch": 200, "hit_primed": 20,
        "observed_checked": 3, "pool_trials": 18, "inprocess_specs": 20,
    },
    "smoke": {
        "clique_n": 6, "caida_n": 300,
        "miss_batch": 5, "hit_batch": 20, "hit_primed": 5,
        "observed_checked": 2, "pool_trials": 4, "inprocess_specs": 3,
    },
}

#: Fig. 2's x axis on the 16-AS clique (``withdrawal.DEFAULT_SDN_COUNTS``).
FIG2_MRAI = 30.0
#: the service trial: small enough that the service, not the
#: simulation, is most of a round trip.
SERVICE_SPEC = {
    "scenario": "withdrawal", "topology": "clique",
    "n": 6, "sdn_count": 3, "mrai": 1.0,
}
#: client poll pause while a job runs (a closed loop of one client).
POLL_S = 0.002
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Op:
    """One timed operation."""

    wall_s: float
    cpu_s: float
    ok: bool
    #: simulated events behind the result this operation delivered.
    events: int = 0
    #: operations of one kind do the same work at any seed (one SDN
    #: fraction, one storm phase); a workload's *pass* is one of each.
    kind: str = ""
    #: workload-specific timings and counts (HTTP calls, bus records).
    detail: Dict[str, Any] = field(default_factory=dict)


def _trial(tracer, trial_id: str):
    return tracer.trial(trial_id) if tracer is not None else contextlib.nullcontext()


class Workload:
    """Base: set up once, run rounds, check, report deterministic counts."""

    name = ""
    #: rounds are independent, so a traced run can run round 0 twice
    #: (untraced, then traced) on identical work.
    replays_round0 = True

    def __init__(self, seed: int, sizes: Dict[str, int]) -> None:
        self.seed = seed
        self.sizes = sizes
        #: problems found by checks made between operations.
        self.problems: List[str] = []
        #: checks made (they count as attempted operations).
        self.checks = 0
        #: deterministic counts of round 0 — equal at one seed, always.
        self.counts: Dict[str, int] = {}
        #: the yardstick, handed over once set-up is done and timed,
        #: and the host-slowness samples taken with it between operations.
        self.reference = None
        self.slowness: List[float] = []

    def sample_host(self, times: int = 1) -> None:
        if self.reference is not None:
            self.slowness.extend(
                self.reference.sample() for _ in range(times)
            )

    def setup(self) -> None:
        """Everything a user waits for before the first operation."""

    def run_round(self, index: int, tracer=None) -> List[Op]:
        raise NotImplementedError

    def check(self, ops: List[Op]) -> None:
        """End-of-run checks over all operations (untimed)."""

    def attach(self, tracer) -> None:
        """Hook what ``setup`` built before the tracer was installed."""

    def traced_extras(self, tracer) -> Dict[str, float]:
        """Extra passes a traced run makes after its rounds."""
        return {}

    def peak_rss_mib(self) -> float:
        """This process's high-water RSS (Linux reports KiB), less the
        yardstick's ring."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return peak - (self.reference.footprint_mib if self.reference else 0.0)

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    def _expect(self, condition: bool, problem: str) -> bool:
        self.checks += 1
        if not condition:
            self.problems.append(problem)
        return condition

    def _count(self, index: int, measurement=None, **counts: int) -> None:
        """Add to round 0's deterministic counts (a measurement brings
        its activity counters)."""
        if index != 0:
            return
        if measurement is not None:
            counts.update(
                updates_rx=measurement.updates_rx,
                decisions=measurement.decision_changes,
                fib_changes=measurement.fib_changes,
                recomputes=measurement.recomputations,
            )
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)


# ----------------------------------------------------------------------
# Fig. 2 sweeps
# ----------------------------------------------------------------------
def fig2_sdn_counts(n: int) -> List[int]:
    from repro.experiments.withdrawal import DEFAULT_SDN_COUNTS

    return sorted({c for c in DEFAULT_SDN_COUNTS if c < n - 1} | {n - 1})


def fig2_specs(n: int, seed: int, run: int, **knobs) -> list:
    """Round ``run`` of the Fig. 2 grid: one spec per SDN count, seeded
    ``seed_base + 1000*sdn + run`` like ``run_fraction_sweep``."""
    from repro.experiments.common import WithdrawalScenario
    from repro.runner.jobs import RunSpec
    from repro.topology.builders import clique

    seed_base = 100 + 100_000 * seed
    return [
        RunSpec(
            scenario_factory=WithdrawalScenario,
            topology_factory=clique,
            n=n,
            sdn_count=sdn,
            seed=seed_base + 1000 * sdn + run,
            mrai=FIG2_MRAI,
            label=f"withdrawal sdn={sdn} run={run}",
            **knobs,
        )
        for sdn in fig2_sdn_counts(n)
    ]


MEASURED_FIELDS = (
    "t_event", "t_converged", "t_settled", "t_state_converged",
    "updates_tx", "updates_rx", "decision_changes", "fib_changes",
    "recomputations",
)


def same_measurement(a, b) -> bool:
    """Equal in every measured field (``extra`` carries observer notes)."""
    return all(getattr(a, f) == getattr(b, f) for f in MEASURED_FIELDS)


class Fig2Sweep(Workload):
    """The paper's Fig. 2, serial and unobserved: per-event protocol
    work (sessions, MRAI, decisions, controller recomputes) is the run."""

    name = "fig2_sweep"
    knobs = {"trace_level": "off"}

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.n = sizes["clique_n"]
        #: (sdn_count, convergence_time) of every ok trial.
        self.points: List[tuple] = []

    def setup(self) -> None:
        import repro.runner.jobs  # noqa: F401  (the import is the set-up)

        fig2_specs(self.n, self.seed, 0, **self.knobs)

    def run_round(self, index, tracer=None):
        from repro.runner import jobs

        ops = []
        for spec in fig2_specs(self.n, self.seed, index, **self.knobs):
            self.sample_host()
            info: Dict[str, Any] = {}
            measurement = None
            cpu0, t0 = process_time(), perf_counter()
            try:
                with _trial(tracer, f"{self.name}/{spec.label}"):
                    measurement, _, _ = jobs.run_trial_full(spec, info=info)
            except Exception as exc:  # a failed trial is a failed op
                self.problems.append(f"{spec.label}: {exc!r}")
            wall, cpu = perf_counter() - t0, process_time() - cpu0
            ops.append(Op(wall, cpu, measurement is not None,
                          info.get("events_processed", 0),
                          kind=f"sdn={spec.sdn_count}"))
            if measurement is not None:
                self.points.append((spec.sdn_count, measurement.convergence_time))
                self._count(index, measurement,
                            events=info["events_processed"])
        return ops

    def check(self, ops):
        """Fig. 2's claim: median convergence falls linearly with the
        SDN fraction, and the all-but-origin point is under a second."""
        from repro.analysis.stats import linear_fit

        counts = fig2_sdn_counts(self.n)
        medians = []
        for sdn in counts:
            times = [t for c, t in self.points if c == sdn]
            if not self._expect(bool(times), f"no ok trial at sdn={sdn}"):
                return
            medians.append(statistics.median(times))
        fit = linear_fit([c / self.n for c in counts], medians)
        self._expect(fit.slope < 0, f"slope {fit.slope} not negative")
        self._expect(fit.r_squared >= 0.95, f"R^2 {fit.r_squared} < 0.95")
        self._expect(medians[-1] < 1.0,
                     f"full-SDN point {medians[-1]} s not under 1 s")


class Fig2Observed(Fig2Sweep):
    """The same trials with every observer on, through ``execute_spec``:
    same simulation, but the bus has takers for every record."""

    name = "fig2_observed"
    knobs = {"trace_level": "full", "metrics": True, "spans": True,
             "anatomy": True}

    def run_round(self, index, tracer=None):
        from repro.obs.anatomy import check_anatomy
        from repro.runner import jobs

        ops = []
        specs = fig2_specs(self.n, self.seed, index, **self.knobs)
        # Which records are replayed bare: spread over the fractions,
        # rotating with the round so every fraction gets its turn.
        stride = max(1, len(specs) // self.sizes["observed_checked"])
        replayed = {(i * stride + index) % len(specs)
                    for i in range(self.sizes["observed_checked"])}
        for position, spec in enumerate(specs):
            self.sample_host()
            cpu0, t0 = process_time(), perf_counter()
            with _trial(tracer, f"{self.name}/{spec.label}"):
                record = jobs.execute_spec(spec)
            wall, cpu = perf_counter() - t0, process_time() - cpu0
            events = (record.resources or {}).get("events_processed", 0)
            ops.append(Op(wall, cpu, record.ok, events,
                          kind=f"sdn={spec.sdn_count}"))
            if not record.ok:
                self.problems.append(f"{spec.label}: {record.error}")
                continue
            measurement = record.measurement
            self.points.append((spec.sdn_count, measurement.convergence_time))
            counters = (record.metrics or {}).get("counters", {})
            records = sum(
                value for key, value in counters.items()
                if key.startswith("records_total")
            )
            self._count(index, measurement, events=events, records=records,
                        spans=len(record.spans or ()))
            problems = check_anatomy(
                record.anatomy or {}, t_converged=measurement.t_converged
            )
            self._expect(record.anatomy is not None and not problems,
                         f"{spec.label}: anatomy {problems[:2]}")
            if position in replayed and tracer is None:
                bare = fig2_specs(self.n, self.seed, index,
                                  **Fig2Sweep.knobs)[position]
                self._expect(
                    same_measurement(jobs.run_trial(bare), measurement),
                    f"{spec.label}: observers changed the measurement",
                )
        return ops

    def traced_extras(self, tracer):
        """What observing costs: this workload's round 0 over the bare
        trials of the same round, both untraced."""
        from repro.runner import jobs

        t0 = perf_counter()
        for spec in fig2_specs(self.n, self.seed, 0, **Fig2Sweep.knobs):
            jobs.run_trial(spec)
        return {"bare_round_wall_s": perf_counter() - t0}


# ----------------------------------------------------------------------
# CAIDA storm
# ----------------------------------------------------------------------
class CaidaStorm(Workload):
    """Announce then withdraw one prefix on a built 5k-AS hierarchy:
    build cost, route storage, the kernel queue at large pending sets
    and the host GC — no controller."""

    name = "caida_storm"
    replays_round0 = False  # every cycle runs on the one built network
    #: the scale trial's origin (``WithdrawalScenario.origin``), a tier-1.
    origin = 1

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.n = sizes["caida_n"]
        self.exp = None
        self.setup_detail: Dict[str, float] = {}

    def setup(self) -> None:
        from repro.experiments.common import paper_config
        from repro.experiments.scale import scale_spec
        from repro.framework.experiment import Experiment
        from repro.topology import caida

        spec = scale_spec(self.n, seed=self.seed)
        t0 = perf_counter()
        topology = caida.caida_hierarchy(spec.n)
        t1 = perf_counter()
        config = paper_config(
            seed=spec.seed, mrai=spec.mrai, policy_mode=spec.policy_mode,
            trace_level=spec.trace_level, compact=spec.compact,
            lean=spec.lean, scheduler=spec.scheduler,
        )
        self.exp = Experiment(
            topology, sdn_members=frozenset(), config=config, name="storm"
        ).build()
        t2 = perf_counter()
        self.exp.start()
        t3 = perf_counter()
        self.setup_detail = {
            "generate_s": t1 - t0, "build_s": t2 - t1, "start_s": t3 - t2,
            "links": len(topology.links),
        }

    def attach(self, tracer) -> None:
        tracer.attach(self.exp.net.sim)

    def _holders(self, prefix) -> int:
        return sum(
            1 for node in self.exp.as_nodes()
            if node.loc_rib.get(prefix) is not None
        )

    def run_round(self, index, tracer=None):
        """One cycle: AS 1 announces a fresh prefix, then withdraws it.

        Every cycle runs on the one long-lived heap, where a full
        collection costs about a second and is provoked by whichever
        phase happens to cross the allocation threshold — one cycle's
        garbage billed to another.  Each phase therefore starts from a
        collected heap (untimed); collections it provokes itself are
        timed.  ``gc.setup_*`` reports what full passes cost the build.
        """
        from repro.framework import convergence

        exp = self.exp
        sim = exp.net.sim
        counts0 = dict(exp.net.bus.counts)
        holder: Dict[str, Any] = {}
        phases = (
            ("announce",
             lambda: holder.setdefault("prefix", exp.announce(self.origin))),
            ("withdraw",
             lambda: exp.withdraw(self.origin, holder["prefix"])),
        )
        ops = []
        for phase, event in phases:
            gc.collect()
            self.sample_host(5)  # few, long operations: more per gap
            events0 = sim.events_processed
            measurement = None
            cpu0, t0 = process_time(), perf_counter()
            try:
                with _trial(tracer, f"{self.name}/{index}/{phase}"):
                    measurement = convergence.measure_event(exp, event)
            except Exception as exc:
                self.problems.append(f"cycle {index} {phase}: {exc!r}")
            wall, cpu = perf_counter() - t0, process_time() - cpu0
            op = Op(wall, cpu, measurement is not None,
                    sim.events_processed - events0, kind=phase)
            ops.append(op)
            if measurement is None:
                break
            op.ok &= self._expect(
                0 < measurement.convergence_time <= exp.config.horizon,
                f"cycle {index} {phase}: convergence_time "
                f"{measurement.convergence_time}",
            )
            holders = self._holders(holder["prefix"])
            wanted = self.n if phase == "announce" else 0
            op.ok &= self._expect(
                holders == wanted,
                f"cycle {index} {phase}: {holders} ASes hold the prefix, "
                f"expected {wanted}",
            )
        counts1 = exp.net.bus.counts

        def grown(category: str) -> int:
            return counts1.get(category, 0) - counts0.get(category, 0)

        self._count(
            index,
            events=sum(op.events for op in ops),
            updates_rx=grown("bgp.update.rx"),
            decisions=grown("bgp.decision"),
            fib_changes=grown("fib.change"),
            recomputes=grown("controller.recompute"),
            records=sum(counts1.values()) - sum(counts0.values()),
        )
        return ops


# ----------------------------------------------------------------------
# service round trips
# ----------------------------------------------------------------------
def share_one_cpu(server_pid: int) -> set:
    """Pin the client and the server to one processor; returns the
    processors this process could use before.

    A round trip is a ping-pong: one side always waits for the other, so
    sharing costs no parallelism — while on two processors every hop
    wakes an idle one, and what that costs on a shared host moved a
    1.5 ms round trip by a third from run to run.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.sched_setaffinity(server_pid, {min(cpus)})
    return cpus


class ServiceWorkload(Workload):
    """``repro serve`` as a subprocess, one closed-loop client."""

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.server: Optional[subprocess.Popen] = None
        self.client = None
        self.tmp = OUT_DIR / "tmp" / f"{self.name}-{os.getpid()}"
        self._server_rss_mib = 0.0
        self._next_job = 0
        #: digest -> simulated events, read from the server's registry.
        self._events: Dict[str, int] = {}
        self.metrics_before: Dict[str, float] = {}

    # -- server lifecycle ------------------------------------------------
    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--concurrency", "1",
             "--cache-dir", str(self.tmp / "cache"),
             "--registry", str(self.tmp / "registry.sqlite")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, cwd=str(self.tmp), text=True,
        )
        self.cpus = share_one_cpu(self.server.pid)
        line = self.server.stdout.readline()
        match = re.search(r"http://([^:]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not announce its port: {line!r}")
        self.client = ServiceClient(
            match.group(1), int(match.group(2)), client_id="ledger"
        )
        self.base_url = f"http://{match.group(1)}:{match.group(2)}"
        deadline = perf_counter() + 30.0
        while True:
            try:  # ready is a 200; not ready a 503, not up a refusal
                urllib.request.urlopen(self.base_url + "/api/status").close()
                break
            except OSError:
                if perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def scrape(self) -> Dict[str, float]:
        """The server's own ``/metrics`` page: ``name{labels}`` -> value."""
        from repro.obs.runtime import parse_prometheus

        with urllib.request.urlopen(self.base_url + "/metrics") as response:
            return parse_prometheus(response.read().decode("utf-8")).samples

    def peak_rss_mib(self) -> float:
        """The server's high-water RSS, not the client's."""
        self._read_server_rss()
        return self._server_rss_mib

    def _read_server_rss(self) -> None:
        if self.server is None or self.server.poll() is not None:
            return
        status = pathlib.Path(f"/proc/{self.server.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            self._server_rss_mib = int(match.group(1)) / 1024.0

    def stop_server(self) -> None:
        if self.server is None:
            return
        self._read_server_rss()
        if self.server.poll() is None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()

    def close(self) -> None:
        self.stop_server()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- one round trip --------------------------------------------------
    def payload(self, job: int) -> Dict[str, Any]:
        return {"spec": dict(SERVICE_SPEC, seed=self.seed * 1_000_000 + job)}

    def round_trip(self, payload) -> tuple:
        """Submit, follow to a terminal state, fetch the result bytes.
        Returns ``(op, digest, body)``; HTTP errors fail the op."""
        from repro.service.client import ServiceClientError

        detail: Dict[str, Any] = {"status_s": []}
        digest, body, state = "", b"", "error"
        cpu0, t0 = process_time(), perf_counter()
        try:
            job = self.client.submit(payload)[0]
            t1 = perf_counter()
            detail["submit_s"] = t1 - t0
            digest, state = job["digest"], job["state"]
            while state not in TERMINAL:
                time.sleep(POLL_S)
                t2 = perf_counter()
                state = self.client.status(digest)["state"]
                detail["status_s"].append(perf_counter() - t2)
            t3 = perf_counter()
            body = self.client.result_bytes(digest)
            detail["result_s"] = perf_counter() - t3
        except (OSError, ServiceClientError) as exc:
            self.problems.append(f"{payload['spec']['seed']}: {exc!r}")
            state = "error"
        wall, cpu = perf_counter() - t0, process_time() - cpu0
        detail["state"] = state
        detail["digest"] = digest
        op = Op(wall, cpu, state == "done", kind="round-trip", detail=detail)
        return op, digest, body

    def attach(self, tracer) -> None:
        self.metrics_before = self.scrape()

    def traced_extras(self, tracer) -> Dict[str, Any]:
        """What the server itself counted while the traced rounds ran."""
        after = self.scrape()

        def delta(prefix: str, suffix: str = "") -> float:
            return sum(
                value - self.metrics_before.get(key, 0.0)
                for key, value in after.items()
                if key.startswith(prefix) and key.endswith(suffix)
            )

        submits = delta("repro_service_request_seconds_count",
                        '{route="/api/jobs"}')
        return {
            "scrape": {
                # the two scrapes themselves are not the workload's
                "requests": delta("repro_service_requests{") - 1,
                "submit_route_ms_mean": (
                    delta("repro_service_request_seconds_sum",
                          '{route="/api/jobs"}') / submits * 1e3
                    if submits else 0.0
                ),
                "rejected": sum(
                    value for key, value in after.items()
                    if key.startswith("repro_service_rejected")
                ),
            }
        }

    def load_events(self) -> None:
        """Simulated events per digest, from the registry the server
        wrote (the result body does not carry them)."""
        from repro.obs.registry import RunRegistry

        with RunRegistry(str(self.tmp / "registry.sqlite")) as registry:
            for row in registry.runs(ok=True):
                events = (row.resources or {}).get("events_processed")
                if events is not None:
                    self._events[row.spec_digest] = int(events)

    def check(self, ops):
        self.stop_server()
        self.load_events()
        for op in ops:
            digest = op.detail.get("digest", "")
            if op.ok:
                op.ok = self._expect(
                    digest in self._events,
                    f"job {digest[:12]} has no registry row",
                )
                op.events = self._events.get(digest, 0)


class ServiceMiss(ServiceWorkload):
    """Distinct specs: each submit runs a ~20 ms simulation, so spec
    parsing, HTTP, runner dispatch, cache and registry writes dominate."""

    name = "service_miss"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        #: (payload, result body) of round 0, replayed in-process.
        self.sample: List[tuple] = []

    def run_round(self, index, tracer=None):
        ops = []
        self.sample_host()
        for _ in range(self.sizes["miss_batch"]):
            payload = self.payload(self._next_job)
            self._next_job += 1
            with _trial(tracer, f"{self.name}/{payload['spec']['seed']}"):
                op, _, body = self.round_trip(payload)
            ops.append(op)
            if op.ok:
                cached = json.loads(body).get("cached")
                op.ok = self._expect(
                    cached is False,
                    f"{payload['spec']['seed']}: a distinct spec was "
                    "answered from the cache",
                )
                if index == 0 and len(self.sample) < 3:
                    self.sample.append((payload, body))
        self._count(index, jobs=len(ops))
        return ops

    def check(self, ops):
        """Besides the registry rows: the served measurement equals the
        same spec run in this process."""
        from repro.config import specio
        from repro.runner.jobs import RunRecord, run_trial

        super().check(ops)
        for payload, body in self.sample:
            spec = specio.specs_from_json(payload)[0]
            local = RunRecord(
                digest=spec.digest(), ok=True, measurement=run_trial(spec)
            ).measurement_dict()
            self._expect(
                json.loads(body).get("measurement") == local,
                f"{payload['spec']['seed']}: served measurement differs "
                "from the in-process trial",
            )

    def traced_extras(self, tracer):
        return {**super().traced_extras(tracer), **inprocess_pass(self, tracer)}


class ServiceHit(ServiceWorkload):
    """Resubmits of finished jobs: no simulation at all, so the cost is
    spec parsing, digesting, dedup lookup and two HTTP round trips."""

    name = "service_hit"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        #: (payload, digest, result body) of the primed misses.
        self.primed: List[tuple] = []

    def setup(self) -> None:
        super().setup()
        for job in range(self.sizes["hit_primed"]):
            payload = self.payload(job)
            op, digest, body = self.round_trip(payload)
            if not op.ok:
                raise RuntimeError(f"priming job {job} ended {op.detail}")
            self.primed.append((payload, digest, body))

    def run_round(self, index, tracer=None):
        ops = []
        self.sample_host()
        for i in range(self.sizes["hit_batch"]):
            payload, digest, body = self.primed[i % len(self.primed)]
            with _trial(tracer, f"{self.name}/{index}/{i}"):
                op, got_digest, got_body = self.round_trip(payload)
            ops.append(op)
            if op.ok:
                op.ok = self._expect(
                    got_digest == digest and got_body == body
                    and not op.detail["status_s"],
                    f"hit {index}/{i}: resubmit was not answered with the "
                    "finished job's bytes",
                )
        self._count(index, jobs=len(ops))
        return ops


# ----------------------------------------------------------------------
# the service's layers, called in this process on the same specs
# ----------------------------------------------------------------------
def span_ms(tracer, name: str) -> List[float]:
    return [
        (s["end"] - s["start"]) * 1e3 for s in tracer.spans if s["name"] == name
    ]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def inprocess_pass(workload: ServiceWorkload, tracer) -> Dict[str, float]:
    """The layers under a miss, one by one, on the payloads the server
    just ran: spec ingest, runner dispatch, cache put/get, registry
    write — then the worker pool at 1 and 2 workers, untraced."""
    from repro.config import specio
    from repro.obs.registry import RunRegistry
    from repro.runner.cache import ResultCache
    from repro.runner.pool import ParallelRunner

    sizes = workload.sizes
    payloads = [workload.payload(job) for job in range(sizes["inprocess_specs"])]
    cache = ResultCache(str(workload.tmp / "inprocess-cache"))
    dispatch_ms = []
    with RunRegistry(str(workload.tmp / "inprocess.sqlite")) as registry:
        with tracer.trial(f"{workload.name}/inprocess"):
            for payload in payloads:
                spec = specio.specs_from_json(payload)[0]
                t0 = perf_counter()
                record = ParallelRunner(1).run([spec])[0]
                dispatch_ms.append(
                    (perf_counter() - t0 - record.wall_time) * 1e3
                )
                cache.put(spec, record)
                workload._expect(
                    cache.get(spec) is not None,
                    f"{payload['spec']['seed']}: cache lost a fresh entry",
                )
                registry.record(spec, record)
    out = {
        "runner.execute_spec_overhead_ms":
            tracer.trials[-1]["layers"].get("runner", 0.0) / len(payloads) * 1e3,
        "config.specio_us_p50":
            median(span_ms(tracer, "repro.config.specio.specs_from_json")) * 1e3,
        "runner.dispatch_overhead_ms_p50": median(dispatch_ms),
        "runner.cache_put_ms_p50": median(span_ms(tracer, "ResultCache.put")),
        "runner.cache_get_ms_p50": median(span_ms(tracer, "ResultCache.get")),
        "obs.registry_record_ms_p50":
            median(span_ms(tracer, "RunRegistry.record")),
    }
    tracer.uninstall()
    os.sched_setaffinity(0, workload.cpus)  # the pool gets every processor
    rounds = max(1, sizes["pool_trials"] // len(fig2_sdn_counts(sizes["clique_n"])))
    specs = [
        spec for run in range(rounds)
        for spec in fig2_specs(sizes["clique_n"], workload.seed, run,
                               trace_level="off")
    ][: sizes["pool_trials"]]
    walls = {}
    for workers in (1, 2):
        t0 = perf_counter()
        records = ParallelRunner(workers).run(specs)
        walls[workers] = perf_counter() - t0
        workload._expect(
            all(r.ok for r in records), f"pool run at {workers} workers failed"
        )
    out["runner.pool_speedup_2w"] = walls[1] / walls[2]
    return out


WORKLOADS = {
    cls.name: cls
    for cls in (Fig2Sweep, CaidaStorm, Fig2Observed, ServiceMiss, ServiceHit)
}
