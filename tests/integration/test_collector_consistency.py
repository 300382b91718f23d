"""Integration: the route collector's view vs ground truth.

The paper measures convergence from the collector's BGP update feed;
these tests pin down that the feed — the collector's ``bgp.update.rx``
records, subscribed between ``build()`` and ``start()`` — is a
faithful, ordered record of the network's update activity, the
property the measurement relies on.
"""

import pytest

from repro.bgp.session import BGPTimers
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.topology.builders import clique
from tests.conftest import select, subscribe_records, touching


@pytest.fixture
def exp():
    exp = Experiment(
        clique(5),
        config=ExperimentConfig(seed=4, timers=BGPTimers(mrai=2.0)),
    ).build()
    exp.records = subscribe_records(exp.net.bus, ["bgp.update.rx"])
    return exp.start()


def feed(exp, since=None):
    """The UPDATEs the collector received, as its rx records."""
    return select(exp.records, node=exp.collector.name, since=since)


class TestCollectorVsTrace:
    def test_collector_hears_every_legacy_router(self, exp):
        exp.announce(1)
        exp.wait_converged()
        heard = {r.data["peer"] for r in feed(exp)}
        assert heard == {"as1", "as2", "as3", "as4", "as5"}

    def test_withdrawal_event_visible_in_feed(self, exp):
        prefix = exp.announce(1)
        exp.wait_converged()
        t0 = exp.now
        exp.withdraw(1, prefix)
        exp.wait_converged()
        touched = touching(feed(exp, since=t0), prefix)
        assert touched
        assert any(
            r.data["withdrawn"] and not r.data["announced"] for r in touched
        )

    def test_collector_last_update_close_to_trace_convergence(self, exp):
        """Collector-feed convergence ~ trace convergence (within the
        collector link latency + zero-MRAI reporting delay)."""
        prefix = exp.announce(1)
        exp.wait_converged()
        m = measure_event(exp, lambda: exp.withdraw(1, prefix))
        feed_last = max(r.time for r in feed(exp, since=m.t_event))
        assert abs(feed_last - m.t_converged) < 1.0

    def test_feed_is_time_ordered(self, exp):
        exp.announce(1)
        exp.wait_converged()
        exp.withdraw(1, exp.as_prefix(1))
        exp.wait_converged()
        times = [r.time for r in feed(exp)]
        assert times and times == sorted(times)

    def test_final_best_paths_match_collected_announcements(self, exp):
        """The last path each router announced to the collector equals
        its Loc-RIB best at convergence."""
        prefix = exp.announce(1)
        exp.wait_converged()
        last_paths = {}
        for record in feed(exp):
            for p, path in record.data["announced"]:
                if p == str(prefix):
                    last_paths[record.data["peer"]] = path
            if str(prefix) in record.data["withdrawn"]:
                last_paths[record.data["peer"]] = None
        for asn in (2, 3, 4, 5):
            node = exp.node(asn)
            best = node.loc_rib.get(prefix)
            expected = f"{asn} {best.attrs.as_path}" if best else None
            assert last_paths.get(node.name) == expected, node.name
