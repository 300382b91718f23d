"""Golden-file tests for the human-facing analysis surfaces.

These pin the *exact* text of ``experiment_report``, the provenance
reports, and the log-scan series on one small fixed-seed run.  The
simulator is virtual-time deterministic, so any diff here is a real
behaviour or formatting change — review it, then regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_golden.py

and commit the updated files under ``tests/analysis/golden/``.
"""

import json
import os
import pathlib

import pytest

from repro.analysis.logs import churn_timeline, update_counts_by_node
from repro.analysis.report import (
    experiment_report,
    provenance_markdown,
    provenance_report,
)
from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.topology.builders import clique
from tests.conftest import subscribe_records

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
    if not path.exists():
        pytest.fail(
            f"golden file {path} missing — regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
    assert text == path.read_text(), (
        f"{name} drifted from its golden copy; if the change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and commit"
    )


@pytest.fixture(scope="module")
def run():
    config = ExperimentConfig(
        seed=3,
        timers=BGPTimers(mrai=1.0),
        controller=ControllerConfig(recompute_delay=0.2),
        spans=True,
    )
    exp = Experiment(clique(5), sdn_members={4, 5}, config=config).build()
    records = subscribe_records(exp.net.bus)
    exp.start()
    exp.wait_converged()
    prefix = exp.as_prefix(1)
    measurement = measure_event(exp, lambda: exp.withdraw(1, prefix))
    spans = exp.spans_snapshot()
    root_id = next(
        s["span_id"] for s in spans
        if s["parent_id"] is None and s["t_end"] >= measurement.t_event
    )
    return exp, records, measurement, spans, root_id


class TestReportGoldens:
    def test_experiment_report(self, run):
        exp, records, _, _, _ = run
        check_golden("experiment_report.txt", experiment_report(exp, records))

    def test_provenance_report(self, run):
        _, _, _, spans, root_id = run
        check_golden(
            "provenance_report.txt",
            provenance_report(spans, root_id=root_id, max_timeline=10),
        )

    def test_provenance_markdown(self, run):
        _, _, _, spans, root_id = run
        check_golden(
            "provenance_report.md",
            provenance_markdown(spans, root_id=root_id, max_timeline=10),
        )


class TestLogScanGoldens:
    def test_update_counts_by_node(self, run):
        _, records, measurement, _, _ = run
        counts = update_counts_by_node(records, since=measurement.t_event)
        text = json.dumps(counts, indent=1, sort_keys=True) + "\n"
        check_golden("update_counts_by_node.json", text)

    def test_churn_timeline(self, run):
        _, records, measurement, _, _ = run
        series = churn_timeline(
            records, bin_size=1.0, since=measurement.t_event
        )
        text = json.dumps(series, indent=1) + "\n"
        check_golden("churn_timeline.json", text)
