"""Scaled-down versions of the paper's headline results.

The full-size reproductions are ``repro reproduce``
(:mod:`repro.experiments.reproduce`), which rewrites and checks
``benchmarks/results/``; these tests pin that table to the committed
files and assert the qualitative *shapes* on smaller instances so they
run in CI time:

- Fig. 2: withdrawal convergence falls ~linearly with the SDN fraction;
- §4: announcement shows no such improvement;
- §4: fail-over improvement is bounded (exploration depth is capped by
  the primary/backup path-length gap).
"""

import pathlib

import pytest

from repro.analysis.stats import boxplot_stats, linear_fit
from repro.cli import main
from repro.experiments import reproduce
from repro.experiments.common import (
    AnnouncementScenario,
    FailedRun,
    WithdrawalScenario,
    paper_config,
    run_fraction_sweep,
    run_scenario_once,
    sdn_set_for,
)
from repro.topology.builders import clique

MRAI = 5.0  # scaled down from 30s; dynamics identical, CI-friendly


@pytest.fixture(scope="module")
def withdrawal_sweep_result():
    return run_fraction_sweep(
        WithdrawalScenario,
        n=8,
        sdn_counts=[0, 2, 4, 6],
        runs=3,
        mrai=MRAI,
        recompute_delay=0.2,
    )


class TestFig2Shape:
    def test_convergence_decreases_monotonically(self, withdrawal_sweep_result):
        medians = withdrawal_sweep_result.medians()
        assert all(a > b for a, b in zip(medians, medians[1:])), medians

    def test_trend_is_linear(self, withdrawal_sweep_result):
        fit = withdrawal_sweep_result.fit()
        assert fit.is_decreasing
        assert fit.r_squared > 0.9, (
            withdrawal_sweep_result.medians(), fit
        )

    def test_substantial_total_reduction(self, withdrawal_sweep_result):
        assert withdrawal_sweep_result.reduction_at_full() > 0.5

    def test_zero_percent_dominated_by_mrai_exploration(
        self, withdrawal_sweep_result
    ):
        baseline = withdrawal_sweep_result.points[0].stats.median
        # several MRAI rounds of path exploration
        assert baseline > 2 * MRAI

    def test_update_count_shrinks_with_deployment(self, withdrawal_sweep_result):
        updates = [p.median_updates for p in withdrawal_sweep_result.points]
        assert updates[0] > updates[-1]


class TestAnnouncementShape:
    def test_announcement_gets_no_linear_improvement(self):
        """§4: announcement converges fast already; SDN cannot help much."""
        times = {}
        for k in (0, 4):
            scenario = AnnouncementScenario()
            topo = scenario.topology(8)
            members = sdn_set_for(topo, k, scenario.reserved_legacy)
            m = run_scenario_once(
                scenario, topo, members,
                paper_config(seed=11, mrai=MRAI, recompute_delay=0.2),
            )
            times[k] = m.convergence_time
        # pure BGP announcement floods in well under one MRAI
        assert times[0] < MRAI
        # and SDN deployment does not produce a large absolute reduction
        assert abs(times[0] - times[4]) < MRAI


class TestWithdrawalVsAnnouncement:
    def test_withdrawal_much_slower_than_announcement_in_pure_bgp(self):
        config = paper_config(seed=5, mrai=MRAI)
        wd = WithdrawalScenario()
        topo = wd.topology(8)
        wd_m = run_scenario_once(wd, topo, frozenset(), config)
        an = AnnouncementScenario()
        topo2 = an.topology(8)
        an_m = run_scenario_once(
            an, topo2, frozenset(), paper_config(seed=5, mrai=MRAI)
        )
        assert wd_m.convergence_time > 3 * an_m.convergence_time


COMMITTED = pathlib.Path(__file__).parents[2] / reproduce.RESULTS_DIR


class TestReproduce:
    def test_one_entry_per_committed_result(self):
        assert set(reproduce.RESULTS) == {
            path.stem for path in COMMITTED.glob("*.txt")
        }

    def test_rewrites_committed_files_byte_for_byte(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        names = ["fig1_components", "subcluster"]
        assert main(["-q", "reproduce", *names]) == 0
        for name in names:
            written = tmp_path / reproduce.RESULTS_DIR / f"{name}.txt"
            assert written.read_bytes() == (
                COMMITTED / f"{name}.txt"
            ).read_bytes(), name

    def test_a_broken_shape_or_a_lost_trial_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        """Damping that changes nothing breaks Mao et al.'s claim; a
        result that lost a trial is named and not written."""
        monkeypatch.chdir(tmp_path)
        flat = boxplot_stats([10.0])
        cells = {
            (damped, k): flat
            for damped in (False, True) for k in (0, reproduce.N - 1)
        }
        lost = FailedRun(sdn_count=0, fraction=0.0, seed=0, error="boom")
        for name, returned in (
            ("ablation_damping", (cells, [])), ("subcluster", (None, [lost])),
        ):
            monkeypatch.setitem(reproduce.RESULTS, name, reproduce.RESULTS[
                name]._replace(run=lambda returned=returned, **_: returned))
        assert main(["reproduce", "ablation_damping", "subcluster"]) == 1
        out = capsys.readouterr().out
        assert (
            "FAIL ablation_damping: damping slows pure-BGP fail-over" in out
        )
        assert "WARNING: 1 run(s) failed" in out
        assert "FAIL subcluster: not written" in out
        assert not (tmp_path / reproduce.RESULTS_DIR).joinpath(
            "subcluster.txt").exists()
