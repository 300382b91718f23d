"""Unit tests for Adj-RIB-In / Loc-RIB / Adj-RIB-Out."""

from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.rib import AdjRibIn, AdjRibOut, LocRib, Route
from repro.net.addr import Prefix

PFX = Prefix.parse("10.0.0.0/24")
PFX2 = Prefix.parse("10.0.1.0/24")


def route(prefix=PFX, path=(1,), peer=1):
    return Route(
        prefix=prefix,
        attrs=PathAttributes(as_path=AsPath.from_iterable(path)),
        peer_asn=peer,
        peer_name=f"as{peer}",
    )


class TestAdjRibIn:
    def test_update_and_get(self):
        rib = AdjRibIn(1)
        assert rib.update(route()) is True
        assert rib.get(PFX) is not None

    def test_identical_update_reports_no_change(self):
        rib = AdjRibIn(1)
        rib.update(route())
        assert rib.update(route()) is False

    def test_changed_attrs_report_change(self):
        rib = AdjRibIn(1)
        rib.update(route(path=(1,)))
        assert rib.update(route(path=(2, 1))) is True

    def test_withdraw(self):
        rib = AdjRibIn(1)
        rib.update(route())
        assert rib.withdraw(PFX) is True
        assert rib.withdraw(PFX) is False
        assert rib.get(PFX) is None

    def test_clear_returns_prefixes(self):
        rib = AdjRibIn(1)
        rib.update(route(PFX))
        rib.update(route(PFX2))
        cleared = rib.clear()
        assert sorted(str(p) for p in cleared) == ["10.0.0.0/24", "10.0.1.0/24"]
        assert len(rib) == 0

    def test_iteration(self):
        rib = AdjRibIn(1)
        rib.update(route(PFX))
        rib.update(route(PFX2))
        assert len(list(rib)) == 2


class TestLocRib:
    def test_set_best_and_versioning(self):
        rib = LocRib()
        v0 = rib.version
        assert rib.set_best(route()) is True
        assert rib.version > v0

    def test_same_best_no_version_bump(self):
        rib = LocRib()
        rib.set_best(route())
        v = rib.version
        assert rib.set_best(route()) is False
        assert rib.version == v

    def test_peer_change_counts_as_change(self):
        rib = LocRib()
        rib.set_best(route(peer=1))
        assert rib.set_best(route(peer=2)) is True

    def test_remove(self):
        rib = LocRib()
        rib.set_best(route())
        assert rib.remove(PFX) is True
        assert rib.remove(PFX) is False

    def test_routes_sorted_by_prefix(self):
        rib = LocRib()
        rib.set_best(route(PFX2))
        rib.set_best(route(PFX))
        assert [str(r.prefix) for r in rib.routes()] == [
            "10.0.0.0/24", "10.0.1.0/24",
        ]


class TestAdjRibOut:
    """The table an output run compares the host's export with: a prefix
    is sent when the export is neither the held object nor equal to it
    (``BGPSession._flush``)."""

    def test_first_announce_needed(self):
        rib = AdjRibOut(1)
        assert rib.get(PFX) is None

    def test_same_attrs_no_resend(self):
        rib = AdjRibOut(1)
        attrs = PathAttributes(as_path=AsPath.of(1))
        rib.mark_sent(PFX, attrs)
        assert rib.get(PFX) is attrs
        assert rib.get(PFX) == PathAttributes(as_path=AsPath.of(1))

    def test_changed_attrs_resend(self):
        rib = AdjRibOut(1)
        rib.mark_sent(PFX, PathAttributes(as_path=AsPath.of(1)))
        new = PathAttributes(as_path=AsPath.of(2, 1))
        assert rib.get(PFX) != new
        rib.mark_sent(PFX, new)
        assert rib.get(PFX) is new

    def test_withdraw_only_if_previously_sent(self):
        rib = AdjRibOut(1)
        assert rib.get(PFX) is None
        rib.mark_sent(PFX, PathAttributes())
        assert rib.get(PFX) is not None

    def test_mark_sent_none_clears(self):
        rib = AdjRibOut(1)
        rib.mark_sent(PFX, PathAttributes())
        rib.mark_sent(PFX, None)
        assert rib.get(PFX) is None
        assert len(rib) == 0


class TestRoute:
    def test_local_route(self):
        local = Route(prefix=PFX, attrs=PathAttributes(), peer_asn=0)
        assert local.is_local

    def test_as_path_len(self):
        assert route(path=(3, 2, 1)).as_path_len == 3
