"""Self-tests of the ledger benchmark (not part of tier-1).

Run with ``python -m pytest benchmarks/ledger/tests``.  Everything runs
at ``--smoke`` size: clique n=6, CAIDA n=300, 5 misses / 20 hits.
"""

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

LEDGER = pathlib.Path(__file__).resolve().parents[1]
REPO_ROOT = LEDGER.parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(script, *args):
    return subprocess.run(
        [sys.executable, str(LEDGER / script), *args],
        capture_output=True, text=True, timeout=120,
    )


def measure(*args):
    done = run("measure.py", "--smoke", "--seconds", "0", *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_ledger_runs_every_workload_both_ways_in_30s():
    started = time.perf_counter()
    done = run("run.py", "--smoke")
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30, f"smoke ledger took {elapsed:.1f} s"
    for workload in WORKLOADS:
        assert f"== {workload} · end to end" in done.stdout
        assert f"== {workload} · per layer" in done.stdout
    rows = json.loads((LEDGER / "out" / "ledger.json").read_text())
    assert {row["case"] for row in rows} == set(WORKLOADS)
    for row in rows:
        assert set(row) == {
            "layer", "case", "metric", "value", "unit", "n", "host", "git_rev"
        }
        assert set(row["host"]) == {"nproc", "python", "platform"}


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["fig2_observed", "service_miss"])
def test_contract_line_names_are_the_declared_ones(workload, trace, group):
    done = run("run.py", "--smoke", "--workload", workload, "--seed", "3",
               "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float)
        if group == "end_to_end":
            assert metric["value"] > 0, name


def test_counts_repeat_at_one_seed_and_change_with_another():
    first = measure("--workload", "fig2_sweep", "--seed", "5")
    again = measure("--workload", "fig2_sweep", "--seed", "5")
    other = measure("--workload", "fig2_sweep", "--seed", "6")
    assert first["counts"] == again["counts"]
    assert first["counts"]["events"] > 0
    assert first["counts"] != other["counts"]


def test_traced_counts_match_untraced_and_bypasses_are_zero():
    sweep = measure("--workload", "fig2_sweep", "--seed", "5", "--trace", "1")
    assert sweep["counts"] == measure(
        "--workload", "fig2_sweep", "--seed", "5")["counts"]
    assert sweep["failed"] == 0, sweep["problems"]
    assert sweep["metrics"]["eventsim.bus.retained_share"] == 0.0
    assert sweep["metrics"]["controller.recomputes"] > 0
    assert sweep["metrics"]["trace.overhead_ratio"] > 0
    storm = measure("--workload", "caida_storm", "--seed", "5", "--trace", "1")
    assert storm["failed"] == 0, storm["problems"]
    for name, value in storm["metrics"].items():
        if name.startswith(("controller.", "sdn.")):
            assert value == 0.0, name
    assert storm["metrics"]["bgp.withdraw_events_per_s"] > 0
    observed = measure("--workload", "fig2_observed", "--seed", "5",
                       "--trace", "1")
    assert observed["metrics"]["eventsim.bus.retained_share"] == 1.0
    assert observed["metrics"]["obs.observer_overhead_ratio"] > 1.0


def test_an_injected_failing_operation_reaches_failed_and_the_exit_code():
    result = measure("--workload", "fig2_sweep", "--fail-op", "1")
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert any("injected" in problem for problem in result["problems"])
    done = run("run.py", "--smoke", "--workload", "fig2_sweep", "--fail-op", "1")
    assert done.returncode == 1
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_run_refuses_a_directory_without_the_emulator(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    the benchmark's own files exist: non-zero exit, no result line."""
    import shutil

    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(LEDGER, target,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "fig2_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
