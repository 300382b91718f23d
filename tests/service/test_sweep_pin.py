"""Every progress event and registry row a sweep leaves, pinned.

Three ways a trial is answered: a served miss, a served cache hit after
a restart, and a :class:`~repro.runner.ParallelRunner` sweep of one
cache hit and one miss at one and two workers.  Wall-clock readings,
the executing process, the revision and the recording time are masked;
everything else — event order, counts, record summaries, sweep timing
counters, run and sweep rows — must stay exactly as pinned in
``golden/sweep_pin.json``.  Regenerate it (after reviewing the change)
with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/service/test_sweep_pin.py
"""

import asyncio
import dataclasses
import json
import os
import pathlib

import pytest

from repro.config import runspec_from_json
from repro.obs.registry import RunRegistry
from repro.runner import JsonProgress, ParallelRunner, ResultCache
from repro.service.manager import JobManager

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sweep_pin.json"
BASE = {"scenario": "withdrawal", "n": 5, "sdn_count": 2, "mrai": 1.0}
#: fields that read the wall clock, the executing process or the tree.
MASKED = {
    "wall_time", "worker", "elapsed", "total_job_wall", "max_job_wall",
    "recorded_at", "git_rev", "resources",
}


def spec_for(seed):
    return runspec_from_json({**BASE, "seed": seed})


def masked(value):
    if isinstance(value, dict):
        return {
            key: "<masked>" if key in MASKED else masked(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [masked(item) for item in value]
    return value


def registry_rows(path):
    """Every run and sweep row of the registry at ``path`` (None when
    nothing created it)."""
    if not os.path.exists(path):
        return None
    with RunRegistry(path) as registry:
        return masked({
            "runs": [dataclasses.asdict(row) for row in registry.runs()],
            "sweeps": [dataclasses.asdict(row) for row in registry.sweeps()],
        })


def served(spec, cache_dir, registry_path):
    """One submit of ``spec`` to a fresh manager: the job's events."""

    async def session():
        manager = JobManager(
            cache=ResultCache(cache_dir), registry_path=str(registry_path)
        )
        manager.start()
        try:
            (job,) = manager.submit_many([spec], "alice")
            await asyncio.wait_for(job.done.wait(), 60)
            return job.events
        finally:
            await manager.aclose()

    return masked(asyncio.run(session()))


def swept(workers, cache_dir, registry_path):
    """A cached spec and a new one through the runner: its events."""
    ParallelRunner(1, cache=cache_dir).run([spec_for(1)])
    events = []
    ParallelRunner(
        workers, cache=cache_dir, registry=str(registry_path),
        progress=JsonProgress(events.append),
    ).run([spec_for(1), spec_for(2)])
    return masked(events)


def observed(tmp_path):
    cache = tmp_path / "cache"
    out = {
        "served_miss": {
            "events": served(spec_for(7), cache, tmp_path / "miss.sqlite"),
            "registry": registry_rows(tmp_path / "miss.sqlite"),
        },
        "served_hit_after_restart": {
            "events": served(spec_for(7), cache, tmp_path / "hit.sqlite"),
            "registry": registry_rows(tmp_path / "hit.sqlite"),
        },
    }
    for workers in (1, 2):
        base = tmp_path / f"w{workers}"
        out[f"runner_hit_and_miss_w{workers}"] = {
            "events": swept(workers, base / "cache", base / "runs.sqlite"),
            "registry": registry_rows(base / "runs.sqlite"),
        }
    return json.loads(json.dumps(out))


def test_events_and_registry_rows_are_pinned(tmp_path):
    got = observed(tmp_path)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    if not GOLDEN.exists():
        pytest.fail(f"{GOLDEN} missing: regenerate with REPRO_REGEN_GOLDEN=1")
    assert got == json.loads(GOLDEN.read_text())
