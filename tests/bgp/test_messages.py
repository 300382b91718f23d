"""Unit tests for BGP message types."""

from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.messages import (
    BGPKeepalive,
    BGPNotification,
    BGPOpen,
    BGPUpdate,
)
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPSession
from repro.net.addr import Prefix
from repro.net.network import Network

PFX = Prefix.parse("10.0.0.0/24")


class TestUpdate:
    def test_empty_flag(self):
        assert BGPUpdate(sender_asn=1).empty
        assert not BGPUpdate(sender_asn=1, withdrawn=(PFX,)).empty

    def test_update_ids_unique_and_increasing(self, monkeypatch):
        """Within one simulator, every UPDATE sessions send gets the next
        id of its run, from 1; a second simulator starts over."""
        ids = []
        send = BGPSession._send

        def recording(session, message):
            if isinstance(message, BGPUpdate):
                ids.append(message.update_id)
            send(session, message)

        monkeypatch.setattr(BGPSession, "_send", recording)

        def sent_ids():
            ids.clear()
            net = Network(seed=1)
            routers = [
                net.add_node(BGPRouter(net.sim, f"r{i}", asn=i))
                for i in (1, 2, 3)
            ]
            for i, a in enumerate(routers):
                for b in routers[i + 1:]:
                    link = net.add_link(a, b)
                    a.add_peer(link)
                    b.add_peer(link)
            for router in routers:
                router.start()
            routers[0].originate(PFX)
            net.sim.run_until_settled()
            return list(ids)

        first = sent_ids()
        assert len(first) > 2
        assert first == list(range(1, len(first) + 1))
        assert sent_ids() == first

    def test_update_built_outside_a_session_has_id_0(self):
        assert BGPUpdate(sender_asn=1).update_id == 0

    def test_describe_mentions_content(self):
        update = BGPUpdate(
            sender_asn=7,
            announced=((PFX, PathAttributes(as_path=AsPath.of(7))),),
            withdrawn=(Prefix.parse("10.1.0.0/24"),),
        )
        text = update.describe()
        assert "AS7" in text
        assert "10.0.0.0/24" in text and "10.1.0.0/24" in text


class TestOthers:
    def test_open_carries_identity(self):
        msg = BGPOpen(sender_asn=9, router_id="as9")
        assert msg.sender_asn == 9 and msg.router_id == "as9"

    def test_keepalive_describe(self):
        assert "AS3" in BGPKeepalive(sender_asn=3).describe()

    def test_notification_default_code(self):
        assert BGPNotification(sender_asn=1).code == "cease"
