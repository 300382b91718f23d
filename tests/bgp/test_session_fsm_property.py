"""Property test: the session FSM survives arbitrary message sequences.

A BGP speaker on the real Internet receives whatever the wire delivers.
Hypothesis throws random message sequences (interleaved with link flaps
and local start/stop calls) at a configured session and checks the FSM
invariants: no crash, state stays valid, ESTABLISHED is only reachable
through a proper OPEN/KEEPALIVE exchange, and the router's per-peer RIBs
are empty whenever the session is not established.
"""

from hypothesis import given, settings, strategies as st

from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.messages import (
    BGPKeepalive,
    BGPNotification,
    BGPOpen,
    BGPUpdate,
)
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers, SessionState
from repro.eventsim import Simulator
from repro.net.addr import Prefix
from repro.net.network import Network

PFX = Prefix.parse("10.9.0.0/24")

actions = st.lists(
    st.sampled_from(
        [
            "peer_open",
            "peer_keepalive",
            "peer_update",
            "peer_notification",
            "local_start",
            "local_stop",
            "link_down",
            "link_up",
            "run",
        ]
    ),
    min_size=1,
    max_size=25,
)


@given(actions)
@settings(max_examples=120, deadline=None)
def test_fsm_never_crashes_or_corrupts(sequence):
    net = Network(seed=7)
    a = net.add_node(
        BGPRouter(net.sim, "a", asn=1, timers=BGPTimers(mrai=1.0))
    )
    b = net.add_node(
        BGPRouter(net.sim, "b", asn=2, timers=BGPTimers(mrai=1.0))
    )
    link = net.add_link(a, b, latency=0.01)
    session = a.add_peer(link)
    b.add_peer(link)

    def send_from_peer(message):
        if link.up:
            link.transmit(b, message)

    for action in sequence:
        if action == "peer_open":
            send_from_peer(BGPOpen(sender_asn=2, router_id="b"))
        elif action == "peer_keepalive":
            send_from_peer(BGPKeepalive(sender_asn=2))
        elif action == "peer_update":
            send_from_peer(
                BGPUpdate(
                    sender_asn=2,
                    announced=(
                        (PFX, PathAttributes(as_path=AsPath.of(2))),
                    ),
                )
            )
        elif action == "peer_notification":
            send_from_peer(BGPNotification(sender_asn=2))
        elif action == "local_start":
            session.start()
        elif action == "local_stop":
            session.stop()
        elif action == "link_down":
            link.set_up(False)
        elif action == "link_up":
            link.set_up(True)
        elif action == "run":
            net.sim.run(until=net.sim.now + 0.5)
        # invariant: state is always a legal enum member
        assert session.state in SessionState
        # invariant: non-established sessions advertise nothing
        if not session.established:
            assert len(session.rib_out) == 0

    net.sim.run(until=net.sim.now + 5.0)
    assert session.state in SessionState
    if session.established:
        # established implies the peer's identity was learned via OPEN
        assert session.peer_asn == 2
    else:
        # ...and a dead session holds no routes from the peer
        assert len(session.rib_in) == 0
