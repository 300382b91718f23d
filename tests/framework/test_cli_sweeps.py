"""CLI sweep commands at toy scale (separate file: these are slower)."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.experiments import topologies
from repro.experiments.common import FailedRun
from tests.runner.scenarios import ExplodingWithdrawal


class TestSweepCommands:
    def test_failover_command(self, capsys):
        rc = main([
            "failover", "--n", "5", "--runs", "1", "--mrai", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fail-over" in out

    def test_topologies_command(self, capsys):
        rc = main(["topologies", "--n", "6", "--runs", "1", "--mrai", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clique" in out and "reduction" in out

    def test_flapstorm_command(self, capsys):
        rc = main([
            "flapstorm", "--n", "5", "--flaps", "4", "--delays", "0.2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recomputes=" in out

    def test_csv_json_export(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        rc = main([
            "fig2", "--n", "5", "--runs", "1", "--mrai", "1",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert rc == 0
        assert csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["scenario"] == "withdrawal"
        assert payload["runs"]

    @pytest.mark.parametrize("command, scenario", [
        ("fig2", "withdrawal"),
        ("failover", "failover"),
        ("announcement", "announcement"),
        ("sweep", "withdrawal"),
    ])
    def test_failed_run_warns_and_exits_nonzero(
        self, command, scenario, monkeypatch, capsys
    ):
        """A trial that exhausted its retries must not hide behind the
        survivors' statistics: every sweep command warns and exits 1."""
        real_sweep = cli.SWEEPS[scenario]

        def sweep_with_a_failure(**kwargs):
            result = real_sweep(**kwargs)
            result.points[0].failures.append(
                FailedRun(
                    sdn_count=0, fraction=0.0, seed=100, attempts=2,
                    error="Traceback (most recent call last):\n"
                          "ValueError: scenario exploded on purpose",
                )
            )
            return result

        monkeypatch.setitem(cli.SWEEPS, scenario, sweep_with_a_failure)
        rc = main([command, "--n", "5", "--runs", "1", "--mrai", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "WARNING: 1 run(s) failed" in out
        assert "after 2 attempt(s): ValueError: scenario exploded" in out
        assert "executed 3/3 trials" in out

    def test_topologies_failed_run_warns_and_exits_nonzero(
        self, monkeypatch, capsys
    ):
        """Same contract for the topology-family command: it used to
        return 0 whatever happened to its trials."""
        real_sweep = cli.topology_family_sweep

        def sweep_with_a_failure(**kwargs):
            results = real_sweep(**kwargs)
            results[0].deployed.failures.append(
                FailedRun(
                    sdn_count=3, fraction=0.5, seed=603, attempts=2,
                    error="Traceback (most recent call last):\n"
                          "ValueError: scenario exploded on purpose",
                )
            )
            return results

        monkeypatch.setattr(cli, "topology_family_sweep", sweep_with_a_failure)
        rc = main(["topologies", "--n", "6", "--runs", "1", "--mrai", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "reduction" in out
        assert "WARNING: 1 run(s) failed" in out
        assert "sdn=3 seed=603 after 2 attempt(s): ValueError" in out

    def test_topologies_names_every_trial_of_a_failed_family(
        self, monkeypatch, capsys
    ):
        """Families with no surviving run used to die in boxplot_stats
        with a bare "no values"; now each lost trial is named."""
        monkeypatch.setattr(
            topologies, "WithdrawalScenario", ExplodingWithdrawal
        )
        rc = main(["topologies", "--n", "6", "--runs", "1", "--mrai", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "WARNING: 8 run(s) failed" in out
        assert out.count("ValueError: scenario exploded on purpose") == 8
