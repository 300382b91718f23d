"""Unit tests for the BGP session FSM, MRAI pacing, and fallover."""

import pytest

from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers, SessionState
from repro.net.addr import Prefix
from tests.conftest import select

PFX = Prefix.parse("192.168.0.0/24")


def make_pair(net, timers_a=None, timers_b=None, *, start=True):
    a = net.add_node(
        BGPRouter(net.sim, "a", asn=1,
                  timers=timers_a or BGPTimers(mrai=10.0))
    )
    b = net.add_node(
        BGPRouter(net.sim, "b", asn=2,
                  timers=timers_b or BGPTimers(mrai=10.0))
    )
    link = net.add_link(a, b, latency=0.01)
    sa = a.add_peer(link)
    sb = b.add_peer(link)
    if start:
        a.start()
        b.start()
        net.sim.run_until_settled()
    return a, b, link, sa, sb


class TestEstablishment:
    def test_sessions_establish(self, net):
        a, b, link, sa, sb = make_pair(net)
        assert sa.established and sb.established

    def test_peer_identity_learned_from_open(self, net):
        a, b, link, sa, sb = make_pair(net)
        assert sa.peer_asn == 2 and sa.peer_name == "b"
        assert sb.peer_asn == 1 and sb.peer_name == "a"

    def test_start_requires_link_up(self, net):
        a, b, link, sa, sb = make_pair(net, start=False)
        link.up = False
        sa.start()
        assert sa.state is SessionState.IDLE

    def test_one_sided_start_still_establishes(self, net):
        """The passive side answers the active side's OPEN."""
        a, b, link, sa, sb = make_pair(net, start=False)
        a.start()  # only a initiates
        net.sim.run_until_settled()
        assert sa.established and sb.established

    def test_initial_table_sync_on_establish(self, net):
        a, b, link, sa, sb = make_pair(net, start=False)
        a.originate(PFX)
        a.start()
        b.start()
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None


class TestTeardown:
    def test_stop_notifies_peer(self, net):
        a, b, link, sa, sb = make_pair(net)
        sa.stop()
        net.sim.run(until=net.sim.now + 0.1)
        assert sa.state is SessionState.IDLE
        # the peer received the NOTIFICATION, dropped the session, and is
        # already retrying (CONNECT) - but it is no longer established
        assert not sb.established

    def test_fast_fallover_on_link_down(self, net):
        a, b, link, sa, sb = make_pair(net)
        link.fail()
        assert sa.state is SessionState.IDLE
        assert sb.state is SessionState.IDLE

    def test_session_reestablishes_after_restore(self, net):
        a, b, link, sa, sb = make_pair(net)
        link.fail()
        link.restore()
        net.sim.run_until_settled()
        assert sa.established and sb.established

    def test_routes_flushed_on_session_down(self, net):
        a, b, link, sa, sb = make_pair(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None
        link.fail()
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is None

    def test_routes_relearned_after_flap(self, net):
        a, b, link, sa, sb = make_pair(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        link.fail()
        link.restore()
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None

    def test_peer_unreachable_forces_down(self, net):
        a, b, link, sa, sb = make_pair(net)
        sa.peer_unreachable()
        assert sa.state is SessionState.IDLE

    def test_peer_reachable_reconnects(self, net):
        a, b, link, sa, sb = make_pair(net)
        sa.peer_unreachable()
        sb.peer_unreachable()
        sa.peer_reachable()
        sb.peer_reachable()
        net.sim.run_until_settled()
        assert sa.established


class TestMraiPacing:
    def test_first_update_is_immediate(self, net, records):
        a, b, link, sa, sb = make_pair(net)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run_until_settled()
        rx = select(records, category="bgp.update.rx", node="b", since=t0)
        # Delivered within output batching + latency, far below MRAI.
        assert rx and rx[0].time - t0 < 1.0

    def test_rapid_changes_coalesce_within_mrai(self, net, records):
        """Two flaps inside one MRAI window reach the peer as one UPDATE."""
        a, b, link, sa, sb = make_pair(net)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run_until_settled()
        first_count = len(select(records, category="bgp.update.rx", node="b", since=t0))
        t1 = net.sim.now
        # flap: withdraw + reannounce within the MRAI window
        a.withdraw(PFX)
        a.originate(PFX)
        net.sim.run_until_settled()
        rx = select(records, category="bgp.update.rx", node="b", since=t1)
        # The withdrawal escapes MRAI (RFC default) but announce+withdraw
        # resolve to the same attrs as before -> at most the withdrawal
        # plus one re-announce; never two separate announces.
        announces = [r for r in rx if r.data["announced"]]
        assert len(announces) <= 1

    def test_mrai_delays_second_announcement(self, net, records):
        timers = BGPTimers(mrai=10.0, mrai_jitter=0.0)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run(until=t0 + 1.0)
        # a second, different announcement within the MRAI window
        a.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run_until_settled()
        rx = [
            r for r in select(records, category="bgp.update.rx", node="b", since=t0)
            if r.data["announced"]
        ]
        assert len(rx) == 2
        gap = rx[1].time - rx[0].time
        assert 9.0 <= gap <= 10.5

    def test_zero_mrai_sends_back_to_back(self, net, records):
        timers = BGPTimers(mrai=0.0)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run(until=t0 + 0.5)
        a.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run_until_settled()
        rx = [
            r for r in select(records, category="bgp.update.rx", node="b", since=t0)
            if r.data["announced"]
        ]
        assert len(rx) == 2
        assert rx[1].time - rx[0].time < 1.0

    def test_withdrawal_escapes_mrai_by_default(self, net, records):
        timers = BGPTimers(mrai=30.0, mrai_jitter=0.0)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        a.originate(PFX)
        net.sim.run_until_settled()
        t0 = net.sim.now
        # start an MRAI round with a second announcement...
        a.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run(until=t0 + 1.0)
        # ...then withdraw inside the window: must not wait 30s.
        a.withdraw(PFX)
        net.sim.run(until=t0 + 5.0)
        withdrawals = [
            r for r in select(records, category="bgp.update.rx", node="b", since=t0)
            if r.data["withdrawn"]
        ]
        assert withdrawals and withdrawals[0].time - t0 < 2.0

    def test_withdrawal_rate_limited_waits_for_mrai(self, net, records):
        timers = BGPTimers(
            mrai=30.0, mrai_jitter=0.0, withdrawal_rate_limited=True
        )
        a, b, link, sa, sb = make_pair(net, timers, timers)
        a.originate(PFX)
        net.sim.run_until_settled()
        t0 = net.sim.now
        a.originate(Prefix.parse("192.168.1.0/24"))  # opens an MRAI round
        net.sim.run(until=t0 + 1.0)
        a.withdraw(PFX)
        net.sim.run_until_settled()
        withdrawals = [
            r for r in select(records, category="bgp.update.rx", node="b", since=t0)
            if r.data["withdrawn"]
        ]
        assert withdrawals and withdrawals[0].time - t0 >= 29.0

    def test_mrai_jitter_within_rfc_bounds(self, net):
        timers = BGPTimers(mrai=10.0, mrai_jitter=0.25)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        period = sa._mrai_period()
        assert 7.5 <= period <= 10.0
