"""Automatic IP address and prefix assignment (paper §2-3).

"The framework automatically assigns IP addresses and configures network
devices."  Assignment plan:

- every AS gets one /24 *AS prefix* out of ``10.0.0.0/8``, derived from
  its ASN's allocation index (deterministic, collision-free);
- every inter-device link gets a /30 *transfer net* out of
  ``172.16.0.0/12``, with ``.1``/``.2`` to the two endpoints;
- hosts get consecutive addresses inside their AS prefix, starting after
  the router's loopback (which takes the first host address).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..net.addr import AddressError, IPv4Address, Prefix

__all__ = ["PrefixAllocator", "AllocationError", "transfer_net"]

AS_POOL = Prefix.parse("10.0.0.0/8")
LINK_POOL = Prefix.parse("172.16.0.0/12")
AS_PREFIX_LEN = 24
LINK_PREFIX_LEN = 30


class AllocationError(RuntimeError):
    """Pool exhausted or conflicting assignment."""


def transfer_net(index: int) -> Tuple[Prefix, IPv4Address, IPv4Address]:
    """The ``index``-th /30 transfer net of the link pool:
    ``(prefix, addr_a, addr_b)``.  A link keeps only its index
    (:meth:`PrefixAllocator.link_index`) and derives these on demand."""
    network = LINK_POOL.network + (index << (32 - LINK_PREFIX_LEN))
    prefix = Prefix(network, LINK_PREFIX_LEN)
    return prefix, prefix.host(0), prefix.host(1)


class PrefixAllocator:
    """Deterministic address plan for one experiment."""

    def __init__(self) -> None:
        self._as_prefix: Dict[int, Prefix] = {}
        self._as_index: Dict[int, int] = {}
        self._next_as_index = 0
        self._next_link_index = 0
        self._host_count: Dict[int, int] = {}
        self._max_as = AS_POOL.num_addresses // (1 << (32 - AS_PREFIX_LEN))
        self._max_links = LINK_POOL.num_addresses // (1 << (32 - LINK_PREFIX_LEN))

    # ------------------------------------------------------------------
    def as_prefix(self, asn: int) -> Prefix:
        """The /24 owned by AS ``asn`` (allocated on first request)."""
        if asn in self._as_prefix:
            return self._as_prefix[asn]
        if self._next_as_index >= self._max_as:
            raise AllocationError(f"AS prefix pool exhausted at AS{asn}")
        index = self._next_as_index
        self._next_as_index += 1
        network = AS_POOL.network + (index << (32 - AS_PREFIX_LEN))
        prefix = Prefix(network, AS_PREFIX_LEN)
        self._as_prefix[asn] = prefix
        self._as_index[asn] = index
        self._host_count[asn] = 0
        return prefix

    def router_address(self, asn: int) -> IPv4Address:
        """The AS router's loopback-style address (first host of the /24)."""
        return self.as_prefix(asn).host(0)

    def host_address(self, asn: int) -> IPv4Address:
        """Next free host address inside the AS prefix."""
        prefix = self.as_prefix(asn)
        self._host_count[asn] += 1
        index = self._host_count[asn]  # 0 is the router
        try:
            return prefix.host(index)
        except AddressError:
            raise AllocationError(f"host pool of AS{asn} exhausted") from None

    def link_index(self) -> int:
        """Allocate the next /30 transfer net; its index in the pool
        (:func:`transfer_net` turns it into addresses)."""
        if self._next_link_index >= self._max_links:
            raise AllocationError("link pool exhausted")
        index = self._next_link_index
        self._next_link_index += 1
        return index

    def link_net(self) -> Tuple[Prefix, IPv4Address, IPv4Address]:
        """Allocate the next /30 transfer net: (prefix, addr_a, addr_b)."""
        return transfer_net(self.link_index())

    # ------------------------------------------------------------------
    def allocations(self) -> Dict[int, Prefix]:
        """Snapshot of all AS prefix assignments."""
        return dict(self._as_prefix)

    def owner_of(self, address: IPv4Address):
        """ASN owning ``address`` through its AS prefix, or None."""
        for asn, prefix in self._as_prefix.items():
            if address in prefix:
                return asn
        return None
