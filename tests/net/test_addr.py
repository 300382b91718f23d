"""Unit + property tests for IPv4 addresses and prefixes."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import AddressError, IPv4Address, Prefix


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        assert str(IPv4Address.parse("10.1.2.3")) == "10.1.2.3"

    def test_parse_extremes(self):
        assert IPv4Address.parse("0.0.0.0").value == 0
        assert IPv4Address.parse("255.255.255.255").value == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4", ""]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.parse(bad)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)
        with pytest.raises(AddressError):
            IPv4Address(-1)

    def test_ordering(self):
        assert IPv4Address.parse("10.0.0.1") < IPv4Address.parse("10.0.0.2")

    def test_addition(self):
        assert str(IPv4Address.parse("10.0.0.255") + 1) == "10.0.1.0"

    def test_hashable(self):
        assert len({IPv4Address(1), IPv4Address(1), IPv4Address(2)}) == 2


class TestPrefix:
    def test_parse_and_str_roundtrip(self):
        assert str(Prefix.parse("10.1.0.0/16")) == "10.1.0.0/16"

    def test_host_bits_are_cleared(self):
        assert str(Prefix.parse("10.1.2.3/16")) == "10.1.0.0/16"

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            Prefix.parse(bad)

    def test_contains_address(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert IPv4Address.parse("10.1.255.255") in prefix
        assert IPv4Address.parse("10.2.0.0") not in prefix

    def test_contains_more_specific_prefix(self):
        outer = Prefix.parse("10.0.0.0/8")
        assert Prefix.parse("10.1.0.0/16") in outer
        assert outer not in Prefix.parse("10.1.0.0/16")

    def test_default_route_contains_everything(self):
        default = Prefix.parse("0.0.0.0/0")
        assert IPv4Address.parse("203.0.113.7") in default

    def test_hosts_skip_network_and_broadcast(self):
        hosts = list(Prefix.parse("10.0.0.0/30").hosts())
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_hosts_slash31_uses_both(self):
        hosts = list(Prefix.parse("10.0.0.0/31").hosts())
        assert len(hosts) == 2

    def test_host_indexing(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert str(prefix.host(0)) == "10.0.0.1"
        assert str(prefix.host(9)) == "10.0.0.10"

    def test_host_index_out_of_range(self):
        with pytest.raises(AddressError):
            Prefix.parse("10.0.0.0/30").host(2)

    def test_subnets(self):
        subs = list(Prefix.parse("10.0.0.0/16").subnets(18))
        assert [str(s) for s in subs] == [
            "10.0.0.0/18", "10.0.64.0/18", "10.0.128.0/18", "10.0.192.0/18",
        ]

    def test_subnets_cannot_grow(self):
        with pytest.raises(AddressError):
            list(Prefix.parse("10.0.0.0/16").subnets(8))

    def test_supernet(self):
        assert str(Prefix.parse("10.1.0.0/16").supernet(8)) == "10.0.0.0/8"

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.1.0.0/16")
        c = Prefix.parse("192.168.0.0/16")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_mask_values(self):
        assert Prefix.parse("0.0.0.0/0").mask == 0
        assert Prefix.parse("10.0.0.0/8").mask == 0xFF000000
        assert Prefix.parse("10.0.0.1/32").mask == 0xFFFFFFFF

    def test_ordering_by_network_then_length(self):
        prefixes = [
            Prefix.parse("10.1.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.0.0.0/16"),
        ]
        assert [str(p) for p in sorted(prefixes)] == [
            "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16",
        ]


class TestPrefixContract:
    """``Prefix`` is a ``(network, length)`` tuple whose hash, equality
    and order are the tuple's own; their values equal those of the frozen
    dataclass it replaced, so set and dict iteration orders — and every
    pinned result built on them — do not move."""

    SAMPLES = ["10.0.0.0/8", "10.1.0.0/16", "192.168.7.0/24",
               "0.0.0.0/0", "255.255.255.255/32", "172.16.4.8/30"]

    def test_hash_is_the_field_tuples(self):
        for text in self.SAMPLES:
            prefix = Prefix.parse(text)
            assert hash(prefix) == hash((prefix.network, prefix.length))

    def test_sorted_order_is_network_then_length(self):
        prefixes = [Prefix.parse(t) for t in self.SAMPLES]
        prefixes += [Prefix.parse("10.0.0.0/16"), Prefix.parse("9.0.0.0/8")]
        assert sorted(prefixes) == sorted(
            prefixes, key=lambda p: (p.network, p.length)
        )

    def test_pickle_round_trip(self):
        for text in self.SAMPLES:
            prefix = Prefix.parse(text)
            str(prefix)  # the cached text is not part of the pickle
            again = pickle.loads(pickle.dumps(prefix))
            assert again == prefix and type(again) is Prefix
            assert hash(again) == hash(prefix)
            assert pickle.dumps(again) == pickle.dumps(Prefix.parse(text))

    def test_host_bits_are_masked_on_construction(self):
        prefix = Prefix(0x0A0102FF, 24)
        assert prefix.network == 0x0A010200
        assert prefix == Prefix.parse("10.1.2.0/24")
        assert Prefix(0xFFFFFFFF, 0) == Prefix(0, 0)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(AddressError):
            Prefix(0, 33)
        with pytest.raises(AddressError):
            Prefix(-1, 8)

    def test_assigning_an_attribute_raises(self):
        prefix = Prefix.parse("10.0.0.0/8")
        for name in ("network", "length", "_text", "other"):
            with pytest.raises(AttributeError):
                setattr(prefix, name, 1)
        with pytest.raises(AttributeError):
            del prefix.network
        assert prefix == Prefix.parse("10.0.0.0/8")

    def test_text_matches_the_dataclass_rendering(self):
        assert [str(Prefix.parse(t)) for t in self.SAMPLES] == self.SAMPLES
        assert str(Prefix(0x0A0102FF, 24)) == "10.1.2.0/24"
        assert repr(Prefix.parse("10.1.0.0/16")) == "Prefix('10.1.0.0/16')"
        prefix = Prefix.parse("192.168.7.0/24")
        assert str(prefix) is str(prefix)  # rendered once


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
prefix_lengths = st.integers(min_value=0, max_value=32)


@given(addresses)
def test_address_parse_str_roundtrip(addr):
    assert IPv4Address.parse(str(addr)) == addr


@given(addresses, prefix_lengths)
def test_prefix_contains_its_base_address(addr, length):
    prefix = Prefix.of(addr, length)
    assert addr in prefix


@given(addresses, prefix_lengths)
def test_prefix_parse_str_roundtrip(addr, length):
    prefix = Prefix.of(addr, length)
    assert Prefix.parse(str(prefix)) == prefix


@given(addresses, prefix_lengths)
def test_prefix_bounds_are_consistent(addr, length):
    prefix = Prefix.of(addr, length)
    assert prefix.first_address <= prefix.last_address
    assert prefix.first_address in prefix
    assert prefix.last_address in prefix
    assert prefix.num_addresses == (
        prefix.last_address.value - prefix.first_address.value + 1
    )


@given(addresses, st.integers(min_value=1, max_value=32))
def test_address_outside_prefix_not_contained(addr, length):
    prefix = Prefix.of(addr, length)
    above = prefix.last_address.value + 1
    if above <= 0xFFFFFFFF:
        assert IPv4Address(above) not in prefix


@given(addresses, st.integers(min_value=0, max_value=31))
def test_subnet_split_partitions_prefix(addr, length):
    prefix = Prefix.of(addr, length)
    halves = list(prefix.subnets(length + 1))
    assert len(halves) == 2
    assert halves[0].num_addresses + halves[1].num_addresses == prefix.num_addresses
    assert all(h in prefix for h in halves)
    assert not halves[0].overlaps(halves[1])
