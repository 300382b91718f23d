"""The repo's benchmark: ``python3 benchmarks/ledger/run.py``.

Two ways in, one measuring path (``measure.py``, a fresh process per
workload):

- **One run** — ``--workload W --seed N --seconds S --trace 0|1`` is the
  ``BENCHMARK.json`` contract.  Untraced, it also starts up to
  ``SETUPS - 1`` set-up-only processes and reports the median set-up time.  The last
  stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
- **The whole ledger** — without ``--workload`` every workload runs
  untraced (end-to-end metrics) and again traced (per-layer metrics);
  every metric is printed by name with its unit, rows go to
  ``out/ledger.json``, and a failed check makes the exit code non-zero.
  ``--sets N`` is the A/A mode: the untraced pass runs ``--runs`` times
  per set, sets alternating, and each metric's gap between set medians
  is held against its declared bound.

Closed loop, one client; one measuring process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

#: set-up samples behind one ``setup_s``: the measuring process's own,
#: then processes that only set up — up to ``SETUPS`` samples, stopping
#: early once set-ups have taken ``SETUP_BUDGET_S`` (a 5000-AS build
#: takes seconds; importing the emulator does not).
SETUPS = 3
SETUP_BUDGET_S = 10.0
#: a child that has not answered by then is killed with its group.
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A measuring process died, hung, or printed no result."""


def spawn(workload: str, seed: int, seconds: float, trace: int, *,
          smoke: bool, extra: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run ``measure.py`` in its own session; return its JSON line."""
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spawned-at", repr(perf_counter()),
    ] + (["--smoke"] if smoke else []) + (extra or [])
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    lines = stdout.strip().splitlines()
    if child.returncode == 0 and lines:
        return json.loads(lines[-1])
    # A child that hung or died may have left the server it started:
    # it shares the child's session, so the whole group goes.
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    raise ChildFailed(
        f"{workload}: measure.py "
        + (f"exited {child.returncode}" if child.returncode is not None
           else f"gave no result in {CHILD_TIMEOUT_S} s")
    )


def run_once(workload: str, seed: int, seconds: float, trace: int, *,
             smoke: bool, extra: Optional[List[str]] = None) -> Dict[str, Any]:
    """One contract run: the child's result, ``setup_s`` replaced by the
    median over several fresh processes' set-ups when untraced."""
    result = spawn(workload, seed, seconds, trace, smoke=smoke, extra=extra)
    if not trace and not smoke:
        setups = [result["metrics"]["setup_s"]]
        while len(setups) < SETUPS and sum(setups) < SETUP_BUDGET_S:
            setups.append(
                spawn(workload, seed, seconds, 0, smoke=smoke,
                      extra=["--setup-only"])["setup_s"]
            )
        result["setup_samples_s"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def contract_line(result: Dict[str, Any], declared: Dict[str, Any]) -> str:
    """The result as ``BENCHMARK.json`` words it; the names must match."""
    if set(result["metrics"]) != set(declared):
        raise ChildFailed(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(declared))}"
        )
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": declared[name]["unit"]}
                for name, value in result["metrics"].items()
            },
        }
    )


def report(result: Dict[str, Any], declared: Dict[str, Any], title: str) -> None:
    print(f"\n== {result['workload']} · {title} · seed {result['seed']} · "
          f"{result['ops']} ops in {result['wall_s']:.2f} s wall, "
          f"{result['cpu_s']:.2f} s cpu · "
          f"failed {result['failed']}/{result['attempted']}")
    for name, value in result["metrics"].items():
        print(f"  {name:36s} {value:16.6g} {declared[name]['unit']}")
    for name, value in result["raw"].items():
        print(f"  (raw wall) {name:25s} {value:16.6g}")
    print("  counts (round 0): " + ", ".join(
        f"{key}={value}" for key, value in sorted(result["counts"].items())))
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def whole_ledger(args, spec) -> int:
    """Every workload untraced then traced; print, write rows, judge."""
    rows: List[dict] = []
    failed = 0
    host, rev = ledger.host_info(), ledger.git_rev()
    for workload in args.workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(workload, args.seed, args.seconds, trace,
                              smoke=args.smoke)
            report(result, spec[group], group.replace("_", " "))
            rows += ledger.rows_for(result, group, spec[group], host, rev)
            failed += result["failed"]
    path = ledger.write_ledger(rows)
    print(f"\n{len(rows)} ledger rows -> {path}")
    if failed:
        print(f"FAILED: {failed} operations or checks failed")
    return 1 if failed else 0


def aa_sets(args, spec) -> int:
    """``--sets N``: the same code, N alternating sets of untraced runs."""
    sets: List[Dict[tuple, List[float]]] = [{} for _ in range(args.sets)]
    counts: List[Dict[tuple, Any]] = [{} for _ in range(args.sets)]
    failed = 0
    for run in range(args.runs):
        for index in range(args.sets):
            for workload in args.workloads:
                result = run_once(workload, args.seed + run, args.seconds, 0,
                                  smoke=args.smoke)
                failed += result["failed"]
                counts[index][(workload, run)] = result["counts"]
                for name, value in result["metrics"].items():
                    sets[index].setdefault((workload, name), []).append(value)
                print(f"set {index} run {run} {workload}: " + ", ".join(
                    f"{k}={v:.5g}" for k, v in result["metrics"].items()),
                    flush=True)
    verdicts = ledger.compare_sets(sets, spec["end_to_end"])
    print(f"\n{'workload':14s} {'metric':14s} "
          + " ".join(f"{'median ' + str(i):>12s}" for i in range(args.sets))
          + f" {'gap':>8s} {'bound':>6s}")
    for v in verdicts:
        print(f"{v['workload']:14s} {v['metric']:14s} "
              + " ".join(f"{m:12.5g}" for m in v["medians"])
              + f" {v['gap']:8.2%} {v['bound']:6.2f}"
              + ("" if v["ok"] else "  <-- beyond its bound"))
    same_counts = all(c == counts[0] for c in counts[1:])
    print("deterministic counts identical between sets: "
          + ("yes" if same_counts else "NO"))
    ledger.write_ledger(verdicts, "aa.json")
    ok = all(v["ok"] for v in verdicts) and same_counts and not failed
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="run this one workload and print the contract line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small round of every workload")
    parser.add_argument("--sets", type=int, default=0,
                        help="A/A mode: this many alternating sets")
    parser.add_argument("--runs", type=int, default=3,
                        help="A/A mode: runs per set (seed, seed+1, ...)")
    parser.add_argument("--fail-op", type=int, default=None,
                        help="self-test: fail this operation of round 0")
    parser.add_argument("--only", default=None,
                        help="whole-ledger / A/A mode: comma-separated workloads")
    args = parser.parse_args(argv)

    if not (ledger.REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no emulator source under {ledger.REPO_ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = ledger.load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    args.workloads = args.only.split(",") if args.only else names
    unknown = sorted(set(args.workloads + [args.workload or names[0]]) - set(names))
    if unknown:
        parser.error(f"unknown workload {unknown}; BENCHMARK.json has {names}")
    try:
        if args.workload is not None:
            result = run_once(
                args.workload, args.seed, args.seconds, args.trace,
                smoke=args.smoke,
                extra=(["--fail-op", str(args.fail_op)]
                       if args.fail_op is not None else None),
            )
            group = "per_layer" if args.trace else "end_to_end"
            for problem in result["problems"]:
                print(f"PROBLEM: {problem}", file=sys.stderr)
            print(f"raw wall readings: {json.dumps(result['raw'])}",
                  file=sys.stderr)
            print(contract_line(result, spec[group]))
            return 0 if result["failed"] == 0 else 1
        if args.sets:
            return aa_sets(args, spec)
        return whole_ledger(args, spec)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
