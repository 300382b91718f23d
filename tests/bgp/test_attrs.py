"""Unit + property tests for AS paths and path attributes."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp.attrs import AsPath, Origin, PathAttributes


class TestAsPath:
    def test_empty_path(self):
        path = AsPath()
        assert path.length == 0
        assert path.origin_as is None
        assert path.first_as is None
        assert str(path) == "(empty)"

    def test_of_constructor(self):
        assert AsPath.of(3, 2, 1).asns == (3, 2, 1)

    def test_prepend_returns_new_path(self):
        base = AsPath.of(1)
        longer = base.prepend(2)
        assert longer.asns == (2, 1)
        assert base.asns == (1,)  # immutable

    def test_prepend_count(self):
        assert AsPath.of(1).prepend(9, count=3).asns == (9, 9, 9, 1)

    def test_prepend_count_must_be_positive(self):
        with pytest.raises(ValueError):
            AsPath.of(1).prepend(9, count=0)

    def test_prepend_sequence(self):
        assert AsPath.of(1).prepend_sequence((4, 3, 2)).asns == (4, 3, 2, 1)

    def test_origin_and_first(self):
        path = AsPath.of(3, 2, 1)
        assert path.origin_as == 1
        assert path.first_as == 3

    def test_contains(self):
        path = AsPath.of(3, 2, 1)
        assert path.contains(2)
        assert not path.contains(9)

    def test_iteration_and_len(self):
        path = AsPath.of(5, 4)
        assert list(path) == [5, 4]
        assert len(path) == 2

    def test_equality_and_hash(self):
        assert AsPath.of(1, 2) == AsPath.of(1, 2)
        assert len({AsPath.of(1), AsPath.of(1)}) == 1


class TestOrigin:
    def test_preference_order(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE


class TestPathAttributes:
    def test_defaults(self):
        attrs = PathAttributes()
        assert attrs.local_pref == 100
        assert attrs.origin is Origin.IGP

    def test_with_path_preserves_other_fields(self):
        attrs = PathAttributes(local_pref=200, med=5)
        updated = attrs.with_path(AsPath.of(1))
        assert updated.as_path == AsPath.of(1)
        assert updated.local_pref == 200
        assert updated.med == 5

    def test_with_local_pref(self):
        assert PathAttributes().with_local_pref(50).local_pref == 50

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PathAttributes().local_pref = 1  # type: ignore[misc]


asns = st.integers(min_value=1, max_value=65535)


@given(st.lists(asns, max_size=10), asns)
def test_prepend_grows_length_by_one(asn_list, new_asn):
    path = AsPath.from_iterable(asn_list)
    assert path.prepend(new_asn).length == path.length + 1


@given(st.lists(asns, max_size=10), asns)
def test_prepended_as_is_first(asn_list, new_asn):
    assert AsPath.from_iterable(asn_list).prepend(new_asn).first_as == new_asn


@given(st.lists(asns, min_size=1, max_size=10))
def test_origin_as_is_last_element(asn_list):
    assert AsPath.from_iterable(asn_list).origin_as == asn_list[-1]


@given(st.lists(asns, max_size=10), st.lists(asns, max_size=10))
def test_prepend_sequence_concatenates(head, tail):
    combined = AsPath.from_iterable(tail).prepend_sequence(head)
    assert list(combined) == head + tail
