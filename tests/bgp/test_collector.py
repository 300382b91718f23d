"""Unit tests for the route collector.

What the collector hears is a fold over its ``bgp.update.rx`` records
(the collector keeps no feed of its own)."""

from repro.bgp.collector import RouteCollector
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.net.addr import Prefix
from repro.topology.builders import clique
from tests.conftest import select, subscribe_records, touching

PFX = Prefix.parse("192.168.0.0/24")


def build(net, n=2):
    timers = BGPTimers(mrai=0.5)
    routers = []
    for i in range(1, n + 1):
        router = net.add_node(
            BGPRouter(net.sim, f"as{i}", asn=i, timers=timers)
        )
        routers.append(router)
    for i in range(n):
        for j in range(i + 1, n):
            link = net.add_link(routers[i], routers[j])
            routers[i].add_peer(link)
            routers[j].add_peer(link)
    collector = net.add_node(RouteCollector(net.sim))
    for router in routers:
        link = net.add_link(router, collector, kind="collector")
        router.add_peer(link, timers=BGPTimers(mrai=0.0))
        collector.add_peer(link)
    records = subscribe_records(net.bus, ["bgp.update.rx"])
    for node in routers + [collector]:
        node.start()
    net.sim.run_until_settled()
    return routers, collector, records


def heard(records, collector, since=None):
    """The UPDATEs ``collector`` received, as its rx records."""
    return select(records, node=collector.name, since=since)


class TestCollection:
    def test_feed_records_announcements(self, net):
        (a, b), collector, records = build(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        touched = touching(heard(records, collector), PFX)
        assert touched
        assert any(r.data["peer"] == "as1" for r in touched)

    def test_feed_records_withdrawals(self, net):
        (a, b), collector, records = build(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        a.withdraw(PFX)
        net.sim.run_until_settled()
        assert any(
            r.data["withdrawn"] and not r.data["announced"]
            for r in touching(heard(records, collector), PFX)
        )

    def test_feed_timestamps_monotonic(self, net):
        (a, b), collector, records = build(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        times = [r.time for r in heard(records, collector)]
        assert times and times == sorted(times)

    def test_updates_since(self, net):
        (a, b), collector, records = build(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        cut = net.sim.now
        b.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run_until_settled()
        later = heard(records, collector, since=cut)
        assert later and all(r.time >= cut for r in later)
        assert touching(later, Prefix.parse("192.168.1.0/24"))
        assert not touching(later, PFX)

    def test_last_update_time(self, net):
        (a, b), collector, records = build(net)
        t0 = net.sim.now
        assert not heard(records, collector, since=t0 + 1)
        a.originate(PFX)
        net.sim.run_until_settled()
        last = max(r.time for r in heard(records, collector))
        assert t0 < last <= net.sim.now


class TestSilence:
    def test_collector_never_announces(self, net):
        (a, b), collector, records = build(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        # no router ever hears anything from the collector
        for router in (a, b):
            for session in router.sessions.values():
                if session.peer_name == "collector":
                    assert len(session.rib_in) == 0
        assert all(r.data["peer"] != "collector" for r in records)

    def test_collector_loc_rib_learns_routes(self, net):
        (a, b), collector, records = build(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        assert collector.loc_rib.get(PFX) is not None


class TestExperimentCollector:
    def test_collector_takes_the_experiments_timers(self):
        """An experiment's collector and its feeds run on the
        experiment's timers with MRAI off — a fixed processing delay
        included, not the 5-20 ms default."""
        timers = BGPTimers(mrai=5.0, proc_delay_min=0.01, proc_delay_max=0.01)
        exp = Experiment(
            clique(3), config=ExperimentConfig(timers=timers)
        ).build()
        collector = exp.collector
        assert collector.timers == BGPTimers(
            mrai=0.0, proc_delay_min=0.01, proc_delay_max=0.01
        )
        assert len(collector.sessions) == 3
        for session in collector.sessions.values():
            assert session.timers == collector.timers
