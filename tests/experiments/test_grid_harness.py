"""The one grid harness (``run_groups``) and the sweeps that ride it.

``fixtures/sweep_groups.json`` was captured at the commit before
``topology_family_sweep``, ``placement_sweep``, ``mrai_sweep`` and
``recompute_delay_sweep`` moved onto the harness, by tapping each
sweep's own trial boundary (``ParallelRunner.run`` /
``run_scenario_once``): per group, every run's convergence time and
update count.  The moved sweeps must reproduce them bit for bit.
"""

import functools
import json
import pathlib

import pytest

from repro.experiments import placement, topologies
from repro.experiments.common import (
    WithdrawalScenario,
    run_groups,
    seeded_specs,
)
from repro.obs.registry import RunRegistry
from repro.runner import JsonProgress
from repro.topology.builders import clique
from tests.experiments.grids import PINNED, group_values
from tests.runner.scenarios import (
    ExplodingWithdrawal,
    FlakyScenario,
    RaisingScenario,
)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "sweep_groups.json"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_moved_sweep_matches_pre_move_values(name):
    sweep, kwargs, _, _ = PINNED[name]
    assert group_values(name, sweep(**kwargs)) == (
        json.loads(FIXTURE.read_text())[name]
    )


def _specs(factory, runs=2, **fields):
    return seeded_specs(
        runs, 7, "unit", scenario_factory=factory, topology_factory=clique,
        n=4, mrai=1.0, **fields,
    )


class TestRunGroups:
    def test_label_and_run_order_preserved(self):
        groups = {
            "z": _specs(WithdrawalScenario, sdn_count=2),
            ("a", 1): _specs(WithdrawalScenario, runs=3, sdn_count=0),
            0.5: _specs(WithdrawalScenario, runs=1, sdn_count=3),
        }
        points, timing = run_groups(groups)
        assert list(points) == ["z", ("a", 1), 0.5]
        assert [len(p.runs) for p in points.values()] == [2, 3, 1]
        assert [r.seed for r in points["a", 1].runs] == [7, 8, 9]
        assert [p.sdn_count for p in points.values()] == [2, 0, 3]
        assert points["z"].fraction == 0.5
        assert timing.jobs == 6 and timing.failed == 0

    def test_failures_land_in_their_own_group(self):
        points, timing = run_groups(
            {
                "before": _specs(WithdrawalScenario, sdn_count=0),
                "boom": _specs(RaisingScenario, sdn_count=2),
                "after": _specs(WithdrawalScenario, sdn_count=2),
            },
            retries=0,
        )
        assert [len(p.failures) for p in points.values()] == [0, 2, 0]
        assert [len(p.runs) for p in points.values()] == [2, 0, 2]
        failure = points["boom"].failures[0]
        assert (failure.sdn_count, failure.seed, failure.attempts) == (2, 7, 1)
        assert "scenario exploded on purpose" in failure.error
        assert timing.failed == 2

    def test_runner_options_reach_the_runner(self, tmp_path):
        events = []
        groups = {"only": _specs(WithdrawalScenario, sdn_count=1)}
        run_groups(groups, cache=tmp_path / "cache")
        points, timing = run_groups(
            groups, workers=2, cache=tmp_path / "cache",
            progress=JsonProgress(lambda p: events.append(p["event"])),
        )
        assert timing.executed == 0 and timing.workers == 2
        assert all(r.cached for r in points["only"].runs)
        assert events[0] == "sweep_started" and events[-1] == "sweep_finished"


class TestSweepsRecordAndFail:
    """Absent before the move: ``registry=`` was not accepted, and a
    trial that failed for good was dropped from the statistics."""

    def test_registry_records_topology_trials(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        topologies.topology_family_sweep(
            n=6, runs=1, mrai=2.0, registry=path,
            families={"clique": topologies.FAMILIES["clique"]},
        )
        with RunRegistry(path) as registry:
            labels = sorted(r.label for r in registry.runs())
        assert labels == [
            "family-clique sdn=0 run=0", "family-clique sdn=3 run=0",
        ]

    def test_registry_records_placement_trials(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        placement.placement_sweep(
            n=8, sdn_count=2, runs=2, mrai=2.0, strategies=("spread",),
            registry=path,
        )
        with RunRegistry(path) as registry:
            assert len(registry.runs()) == 2

    def test_partly_failed_family_keeps_the_failure(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            topologies, "WithdrawalScenario", functools.partial(
                FlakyScenario, flag_path=str(tmp_path / "attempted")
            ),
        )
        (row,) = topologies.topology_family_sweep(
            n=6, runs=2, mrai=2.0, retries=0,
            families={"clique": topologies.FAMILIES["clique"]},
        )
        assert [f.seed for f in row.failures] == [600]
        assert len(row.baseline.runs) == 1 and len(row.deployed.runs) == 2
        assert row.hybrid.n == 2

    def test_fully_failed_family_returns_with_the_others(self, monkeypatch):
        monkeypatch.setattr(
            topologies, "WithdrawalScenario", ExplodingWithdrawal
        )
        small = {
            name: topologies.FAMILIES[name]
            for name in ("clique", "barabasi-albert")
        }
        rows = topologies.topology_family_sweep(
            n=6, runs=1, mrai=2.0, retries=0, families=small,
        )
        assert [r.family for r in rows] == ["clique", "barabasi-albert"]
        for row in rows:
            assert len(row.failures) == 2
            assert "exploded on purpose" in row.failures[0].error

    def test_failed_placement_trial_is_kept(self, tmp_path, monkeypatch):
        flaky = functools.partial(
            FlakyScenario, flag_path=str(tmp_path / "attempted")
        )
        monkeypatch.setattr(placement, "WithdrawalScenario", flaky)
        rows = placement.placement_sweep(
            n=8, sdn_count=2, runs=2, mrai=2.0, retries=0,
            strategies=("hubs-first", "spread"),
        )
        assert [len(r.point.failures) for r in rows] == [1, 0]
        assert [r.convergence.n for r in rows] == [1, 2]
