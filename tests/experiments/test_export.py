"""Unit tests for sweep result export."""

import csv
import io
import json

import pytest

from repro.experiments.common import WithdrawalScenario, run_fraction_sweep
from repro.experiments.export import sweep_rows, sweep_to_csv, sweep_to_json
from repro.runner.jobs import RECORD_PAYLOADS, RESULT_PAYLOADS


@pytest.fixture(scope="module")
def sweep():
    return run_fraction_sweep(
        WithdrawalScenario, n=4, sdn_counts=[0, 2], runs=2, mrai=1.0,
    )


class TestRows:
    def test_one_row_per_run(self, sweep):
        assert len(sweep_rows(sweep)) == 4

    def test_row_fields(self, sweep):
        row = sweep_rows(sweep)[0]
        for field in (
            "scenario", "sdn_count", "fraction", "seed",
            "convergence_time", "updates_tx",
        ):
            assert field in row

    def test_every_result_payload_rides_runs_and_rows(self):
        observed = run_fraction_sweep(
            WithdrawalScenario, n=4, sdn_counts=[0, 2], runs=1, mrai=1.0,
            metrics=True, anatomy=True,
        )
        run = observed.points[0].runs[0]
        row = sweep_rows(observed, payloads=True)[0]
        for name in RESULT_PAYLOADS:
            value = getattr(run, name)
            assert isinstance(value, RECORD_PAYLOADS[name]), name
            assert row[f"run_{name}"] == value
        exported = json.loads(sweep_to_json(observed))["runs"][0]
        assert all(exported[f"run_{name}"] for name in RESULT_PAYLOADS)
        assert not any(k.startswith("run_") for k in sweep_rows(observed)[0])

    def test_rows_match_points(self, sweep):
        rows = sweep_rows(sweep)
        counts = {row["sdn_count"] for row in rows}
        assert counts == {0, 2}


class TestCsv:
    def test_parses_back(self, sweep):
        text = sweep_to_csv(sweep)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 4
        assert parsed[0]["scenario"] == "withdrawal"

    def test_numeric_columns(self, sweep):
        parsed = list(csv.DictReader(io.StringIO(sweep_to_csv(sweep))))
        assert all(float(row["convergence_time"]) >= 0 for row in parsed)


class TestJson:
    def test_valid_json_with_summary(self, sweep):
        payload = json.loads(sweep_to_json(sweep))
        assert payload["scenario"] == "withdrawal"
        assert len(payload["points"]) == 2
        assert len(payload["runs"]) == 4
        assert "slope" in payload["fit"]

    def test_point_summaries_consistent(self, sweep):
        payload = json.loads(sweep_to_json(sweep))
        for point, src in zip(payload["points"], sweep.points):
            assert point["median"] == pytest.approx(src.stats.median)
            assert len(point["times"]) == 2
