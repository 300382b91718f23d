"""Unit tests for the one-shot experiment report."""

import pytest

from repro.analysis.report import experiment_report
from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.topology.builders import clique
from tests.conftest import subscribe_records


def started(exp):
    """Build and start ``exp`` with a list subscribed in between: the
    list receives every record of the run."""
    exp.build()
    records = subscribe_records(exp.net.bus)
    exp.start()
    return records


@pytest.fixture(scope="module")
def report():
    """The report of a settled 5-AS hybrid clique with one host."""
    config = ExperimentConfig(
        seed=1,
        timers=BGPTimers(mrai=1.0),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    exp = Experiment(clique(5), sdn_members={4, 5}, config=config)
    records = started(exp)
    exp.add_host(1)
    exp.wait_converged()
    return experiment_report(exp, records)


class TestReport:
    def test_contains_inventory(self, report):
        assert "legacy routers : 3" in report
        assert "SDN switches   : 2" in report
        assert "hosts          : 1" in report

    def test_contains_session_health(self, report):
        assert "established" in report
        assert "cluster speaker" in report

    def test_contains_update_counts(self, report):
        assert "updates sent" in report

    def test_contains_connectivity(self, report):
        assert "20/20 ordered AS pairs reachable" in report

    def test_contains_cluster_section(self, report):
        assert "recomputations" in report
        assert "sub-clusters" in report

    def test_broken_pairs_listed(self):
        config = ExperimentConfig(seed=2, timers=BGPTimers(mrai=0.5))
        from repro.topology.builders import line

        exp = Experiment(line(3), config=config)
        records = started(exp)
        exp.fail_link(2, 3)
        exp.wait_converged()
        report = experiment_report(exp, records)
        assert "-/->" in report

    def test_pure_bgp_report_omits_cluster(self):
        config = ExperimentConfig(seed=2, timers=BGPTimers(mrai=0.5))
        exp = Experiment(clique(3), config=config)
        report = experiment_report(exp, started(exp))
        assert "recomputations" not in report
