"""Unit + property tests for the address allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.config.allocator import (
    AllocationError,
    PrefixAllocator,
    transfer_net,
)
from repro.net.addr import Prefix


class TestAsPrefixes:
    def test_first_allocation(self):
        alloc = PrefixAllocator()
        assert str(alloc.as_prefix(7)) == "10.0.0.0/24"

    def test_stable_per_asn(self):
        alloc = PrefixAllocator()
        assert alloc.as_prefix(7) == alloc.as_prefix(7)

    def test_distinct_per_asn(self):
        alloc = PrefixAllocator()
        assert alloc.as_prefix(1) != alloc.as_prefix(2)

    def test_router_address_inside_prefix(self):
        alloc = PrefixAllocator()
        assert alloc.router_address(3) in alloc.as_prefix(3)

    def test_all_inside_pool(self):
        alloc = PrefixAllocator()
        pool = Prefix.parse("10.0.0.0/8")
        for asn in range(1, 50):
            assert alloc.as_prefix(asn) in pool


class TestHosts:
    def test_hosts_distinct_and_inside(self):
        alloc = PrefixAllocator()
        prefix = alloc.as_prefix(1)
        seen = {alloc.router_address(1)}
        for _ in range(10):
            host = alloc.host_address(1)
            assert host in prefix
            assert host not in seen
            seen.add(host)

    def test_host_pool_exhaustion(self):
        alloc = PrefixAllocator()
        alloc.as_prefix(1)
        with pytest.raises(AllocationError):
            for _ in range(300):
                alloc.host_address(1)


class TestLinkNets:
    def test_link_net_structure(self):
        alloc = PrefixAllocator()
        prefix, a, b = alloc.link_net()
        assert prefix.length == 30
        assert a in prefix and b in prefix and a != b

    def test_link_nets_disjoint(self):
        alloc = PrefixAllocator()
        nets = [alloc.link_net()[0] for _ in range(50)]
        for i, x in enumerate(nets):
            for y in nets[i + 1:]:
                assert not x.overlaps(y)


    def test_index_and_net_share_one_sequence(self):
        alloc = PrefixAllocator()
        assert alloc.link_index() == 0
        assert alloc.link_net() == transfer_net(1)
        assert alloc.link_index() == 2
        assert str(transfer_net(0)[0]) == "172.16.0.0/30"

    def test_link_pool_exhaustion(self):
        alloc = PrefixAllocator()
        alloc._next_link_index = alloc._max_links - 1
        alloc.link_index()
        with pytest.raises(AllocationError):
            alloc.link_index()
        with pytest.raises(AllocationError):
            alloc.link_net()


class TestOwnership:
    def test_owner_of(self):
        alloc = PrefixAllocator()
        addr = alloc.router_address(9)
        alloc.as_prefix(12)
        assert alloc.owner_of(addr) == 9

    def test_owner_of_unknown(self):
        alloc = PrefixAllocator()
        alloc.as_prefix(1)
        from repro.net.addr import IPv4Address

        assert alloc.owner_of(IPv4Address.parse("203.0.113.1")) is None

    def test_allocations_snapshot(self):
        alloc = PrefixAllocator()
        alloc.as_prefix(5)
        alloc.as_prefix(6)
        assert set(alloc.allocations()) == {5, 6}


@given(st.lists(st.integers(min_value=1, max_value=60000),
                min_size=1, max_size=60, unique=True))
def test_as_prefixes_pairwise_disjoint(asns):
    alloc = PrefixAllocator()
    prefixes = [alloc.as_prefix(asn) for asn in asns]
    for i, x in enumerate(prefixes):
        for y in prefixes[i + 1:]:
            assert not x.overlaps(y)


@given(st.lists(st.integers(min_value=1, max_value=60000),
                min_size=1, max_size=40, unique=True))
def test_allocation_independent_of_request_order(asns):
    forward = PrefixAllocator()
    first = [forward.as_prefix(asn) for asn in asns]
    again = PrefixAllocator()
    second = [again.as_prefix(asn) for asn in asns]
    assert first == second
