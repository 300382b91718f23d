"""Forked scale trials: peak-RSS-honest measurement of one big run.

Build a :class:`~repro.runner.jobs.RunSpec` for one withdrawal-storm
trial on the synthetic CAIDA hierarchy, execute it in a **forked child
process**, and read back wall times, kernel event counts and
``ru_maxrss`` — the machinery behind the 10k-AS memory smoke
(``tests/experiments/test_scale_smoke.py``); the ledger's
``caida_storm`` workload reuses :func:`scale_spec`.

The fork is what makes peak RSS honest: ``getrusage(RUSAGE_SELF).
ru_maxrss`` is a process-lifetime high-water mark that never goes down,
so trials sharing a process would all inherit the largest footprint
seen so far.
"""

from __future__ import annotations

import multiprocessing
import resource
import time
import traceback
from typing import Any, Dict, List

from ..bgp.attrs import intern_stats
from ..runner.jobs import RunSpec
from ..topology import caida_hierarchy
from .common import (
    WithdrawalScenario,
    paper_config,
    run_scenario_once,
    sdn_set_for,
)

__all__ = [
    "SCALE_MRAI",
    "scale_spec",
    "run_scale_trial",
    "check_rss_sublinear",
]

#: storm MRAI — small so a trial is one tight exploration burst, not
#: paper-scale 30 s pacing stretched over thousands of routers.
SCALE_MRAI = 2.0


def scale_spec(n: int, seed: int = 0) -> RunSpec:
    """The one-trial spec at size ``n`` — a real RunSpec, so registry
    rows carry the same digests any sweep of it would."""
    return RunSpec(
        scenario_factory=WithdrawalScenario,
        topology_factory=caida_hierarchy,
        n=n,
        sdn_count=0,
        seed=seed,
        mrai=SCALE_MRAI,
        policy_mode="gao_rexford",
        trace_level="off",
        lean=True,
        label=f"scale n={n}",
    )


class _ClockedWithdrawal(WithdrawalScenario):
    """The withdrawal, with wall clock, kernel event count and intern
    pools read at the converged pre-storm state and after the settle."""

    def prepare(self, exp) -> None:
        super().prepare(exp)
        self.t_ready = time.perf_counter()
        # Sample the pools here: the storm is a withdrawal, and
        # withdrawn routes release their (weakly held) interned
        # attributes, so the end-of-trial pools would be empty.
        self.pools = intern_stats()
        self.events_ready = exp.net.sim.events_processed

    def finish(self, exp) -> None:
        self.t_done = time.perf_counter()
        self.events_total = exp.net.sim.events_processed


def _measure_trial(spec: RunSpec) -> Dict[str, Any]:
    """One trial of ``spec`` (a :func:`scale_spec`: the withdrawal)
    through ``run_scenario_full``, its phases timed."""
    scenario = _ClockedWithdrawal()
    topology = scenario.topology(spec.n, spec.topology_factory)
    members = sdn_set_for(topology, spec.sdn_count, scenario.reserved_legacy)
    config = paper_config(**spec.config_options())
    t_start = time.perf_counter()
    measurement = run_scenario_once(
        scenario, topology, members, config, horizon=spec.horizon
    )
    storm_events = scenario.events_total - scenario.events_ready
    storm_wall = scenario.t_done - scenario.t_ready
    return {
        "n": spec.n,
        "links": len(topology.links),
        "measurement": measurement,
        "build_wall_s": round(scenario.t_ready - t_start, 3),
        "storm_wall_s": round(storm_wall, 3),
        "total_wall_s": round(scenario.t_done - t_start, 3),
        "events_total": scenario.events_total,
        "storm_events": storm_events,
        "events_per_s": round(storm_events / storm_wall) if storm_wall > 0 else 0,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "intern_pools": scenario.pools,
    }


def _child_entry(spec: RunSpec, conn) -> None:
    try:
        conn.send(("ok", _measure_trial(spec)))
    except Exception:
        conn.send(("error", traceback.format_exc(limit=20)))
    finally:
        conn.close()


def run_scale_trial(spec: RunSpec) -> Dict[str, Any]:
    """Run one trial in a forked child and return its result dict."""
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_entry, args=(spec, child_conn))
    proc.start()
    child_conn.close()
    try:
        status, payload = parent_conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"scale trial n={spec.n} died without reporting "
            f"(exitcode {proc.exitcode})"
        )
    proc.join()
    if status != "ok":
        raise RuntimeError(f"scale trial n={spec.n} failed:\n{payload}")
    return payload


def check_rss_sublinear(
    rows: List[Dict[str, Any]], *, factor: float = 1.6
) -> None:
    """Assert peak RSS grew sub-linearly across the trial rows.

    "Topology size" is nodes *plus* edges: route storage scales with
    routes, and routes scale with links — on the synthetic CAIDA
    hierarchy the lateral-peering mesh makes links grow faster than n
    (10k ASes carry ~16x the links of 2k), so gating on n alone would
    flag honest per-link growth.  Memory must stay sub-quadratic in
    that measure: a size step of R may cost at most ``R * factor`` in
    RSS; anything above flags an O(size^2) route-storage blowup.
    """
    if len(rows) < 2:
        return
    first, last = rows[0], rows[-1]
    size_ratio = (last["n"] + last["links"]) / (first["n"] + first["links"])
    rss_ratio = last["peak_rss_mib"] / first["peak_rss_mib"]
    assert rss_ratio < size_ratio * factor, (
        f"peak RSS grew {rss_ratio:.1f}x over a {size_ratio:.1f}x "
        "size step — super-linear route storage"
    )
