"""Unit + property tests for the BGP decision process."""

from hypothesis import given, strategies as st

from repro.bgp.attrs import AsPath, Origin, PathAttributes
from repro.bgp.decision import best_route, rank_routes, route_sort_key
from repro.bgp.rib import Route
from repro.net.addr import Prefix

PFX = Prefix.parse("10.0.0.0/24")


def route(
    path=(1,),
    local_pref=100,
    origin=Origin.IGP,
    med=0,
    peer=1,
    peer_name=None,
):
    return Route(
        prefix=PFX,
        attrs=PathAttributes(
            as_path=AsPath.from_iterable(path),
            local_pref=local_pref,
            origin=origin,
            med=med,
        ),
        peer_asn=peer,
        peer_name=peer_name if peer_name is not None else f"as{peer}",
    )


class TestDecisionSteps:
    def test_empty_candidates(self):
        assert best_route([]) is None

    def test_higher_local_pref_wins(self):
        lo = route(path=(1,), local_pref=50)
        hi = route(path=(9, 8, 7, 1), local_pref=200, peer=2)
        assert best_route([lo, hi]) is hi

    def test_local_route_beats_learned_at_equal_pref(self):
        local = Route(prefix=PFX, attrs=PathAttributes(), peer_asn=0)
        learned = route(path=(1,))
        assert best_route([learned, local]) is local

    def test_shorter_as_path_wins(self):
        short = route(path=(1,), peer=9)
        long = route(path=(2, 1), peer=1)
        assert best_route([long, short]) is short

    def test_lower_origin_wins(self):
        igp = route(origin=Origin.IGP, peer=9)
        egp = route(origin=Origin.EGP, peer=1)
        incomplete = route(origin=Origin.INCOMPLETE, peer=2)
        assert best_route([incomplete, egp, igp]) is igp

    def test_lower_med_wins(self):
        high = route(med=50, peer=1)
        low = route(med=10, peer=2)
        assert best_route([high, low]) is low

    def test_lower_peer_asn_breaks_tie(self):
        a = route(peer=5)
        b = route(peer=3)
        assert best_route([a, b]) is b

    def test_peer_name_is_final_tiebreak(self):
        a = route(peer=1, peer_name="b")
        b = route(peer=1, peer_name="a")
        assert best_route([a, b]) is b


class TestRanking:
    def test_rank_routes_best_first(self):
        worst = route(path=(3, 2, 1), peer=3)
        mid = route(path=(2, 1), peer=2)
        best = route(path=(1,), peer=1)
        ranked = rank_routes([worst, best, mid])
        assert ranked == [best, mid, worst]

    def test_rank_is_total_order(self):
        routes = [route(peer=i, path=(i,)) for i in range(1, 6)]
        ranked = rank_routes(routes)
        keys = [route_sort_key(r) for r in ranked]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
route_strategy = st.builds(
    route,
    path=st.lists(
        st.integers(min_value=1, max_value=100), min_size=1, max_size=6
    ).map(tuple),
    local_pref=st.integers(min_value=0, max_value=300),
    origin=st.sampled_from(list(Origin)),
    med=st.integers(min_value=0, max_value=100),
    peer=st.integers(min_value=1, max_value=100),
)


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_best_is_minimum_of_sort_key(routes):
    best = best_route(routes)
    assert route_sort_key(best) == min(route_sort_key(r) for r in routes)


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_best_has_max_local_pref(routes):
    best = best_route(routes)
    assert best.attrs.local_pref == max(r.attrs.local_pref for r in routes)


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_best_is_order_independent(routes):
    forward = best_route(routes)
    backward = best_route(list(reversed(routes)))
    assert route_sort_key(forward) == route_sort_key(backward)


@given(st.lists(route_strategy, min_size=1, max_size=12))
def test_ranking_contains_all_candidates(routes):
    assert len(rank_routes(routes)) == len(routes)
