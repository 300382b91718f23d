"""IPv4 addresses and prefixes.

The emulation framework auto-assigns addresses to every AS, link, and
host (the paper's "configuration management such as IP prefixes"), so we
need a small, fast, hashable address model.  Addresses are wrapped
integers; prefixes are ``(network_int, length)`` tuples with the host
bits forced to zero, which makes longest-prefix match a simple
mask-and-compare.  Every RIB, Adj-RIB-Out, dirty set and export memo is
keyed by :class:`Prefix`, so its hash and equality run in C (the
tuple's own): a 5000-AS storm cycle hashes about 600k prefixes.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import total_ordering
from operator import itemgetter
from typing import Iterator, Union

__all__ = ["IPv4Address", "Prefix", "AddressError"]

_MAX32 = 0xFFFFFFFF


class AddressError(ValueError):
    """Malformed address or prefix text / out-of-range value."""


def _mask(length: int) -> int:
    return (_MAX32 << (32 - length)) & _MAX32 if length else 0


def _parse_quad(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"expected dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise AddressError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@total_ordering
@dataclass(frozen=True)
class IPv4Address:
    """A single IPv4 address, stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX32:
            raise AddressError(f"address out of range: {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad text, e.g. ``"10.0.3.1"``."""
        return cls(_parse_quad(text))

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __int__(self) -> int:
        return self.value

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)


class Prefix(tuple):
    """An IPv4 prefix (network + mask length), host bits forced clear.

    A ``tuple`` ``(network, length)``, as
    :class:`~repro.eventsim.core.Event` is a list: the fields read
    through properties, and hashing, equality and ordering are the
    tuple's own, in C.  The hash is ``hash((network, length))`` and the
    order ``(network, length)``, which every pinned set and dict
    iteration order rests on: sorted prefix lists are stable and
    more-specifics of the same network sort after the covering prefix.
    Immutable: assigning an attribute raises.  The instance dict only
    ever holds the rendered text, made on the first ``str()`` (most
    prefixes in a large build are never rendered).
    """

    network = property(itemgetter(0), doc="Network address as an integer.")
    length = property(itemgetter(1), doc="Mask length in bits.")

    def __new__(cls, network: int, length: int) -> "Prefix":
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length!r}")
        if not 0 <= network <= _MAX32:
            raise AddressError(f"network out of range: {network!r}")
        return tuple.__new__(cls, (network & _mask(length), length))

    def __getnewargs__(self):
        return (self[0], self[1])

    def __getstate__(self):
        # The cached text is not state: a pickle carries the two fields.
        return None

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.1.0.0/16"`` style text."""
        if "/" not in text:
            raise AddressError(f"missing /length: {text!r}")
        net_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise AddressError(f"bad length in {text!r}")
        return cls(_parse_quad(net_text), int(len_text))

    @classmethod
    def of(cls, address: Union[IPv4Address, str], length: int) -> "Prefix":
        """Prefix covering ``address`` at ``length`` bits."""
        if isinstance(address, str):
            address = IPv4Address.parse(address)
        return cls(address.value, length)

    @property
    def mask(self) -> int:
        """Netmask as an integer."""
        return _mask(self[1])

    @property
    def num_addresses(self) -> int:
        """Total addresses covered by the prefix."""
        return 1 << (32 - self.length)

    @property
    def first_address(self) -> IPv4Address:
        """Lowest address in the prefix."""
        return IPv4Address(self.network)

    @property
    def last_address(self) -> IPv4Address:
        """Highest address in the prefix."""
        return IPv4Address(self.network | (~self.mask & _MAX32))

    def contains(self, item: Union[IPv4Address, "Prefix"]) -> bool:
        """Address containment, or full prefix containment (>= specific)."""
        if isinstance(item, Prefix):
            return item.length >= self.length and (item.network & self.mask) == self.network
        return (item.value & self.mask) == self.network

    def __contains__(self, item: Union[IPv4Address, "Prefix"]) -> bool:
        return self.contains(item)

    def hosts(self) -> Iterator[IPv4Address]:
        """Usable host addresses (skips network/broadcast for length < 31)."""
        if self.length >= 31:
            start, stop = self.network, self.network + self.num_addresses
        else:
            start, stop = self.network + 1, self.network + self.num_addresses - 1
        for value in range(start, stop):
            yield IPv4Address(value)

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th usable host address (0-based)."""
        base = self.network if self.length >= 31 else self.network + 1
        addr = base + index
        if addr > self.last_address.value or (
            self.length < 31 and addr >= self.last_address.value
        ):
            raise AddressError(f"host index {index} out of {self}")
        return IPv4Address(addr)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Split into consecutive subnets of ``new_length`` bits."""
        if new_length < self.length:
            raise AddressError(
                f"cannot split /{self.length} into larger /{new_length}"
            )
        if new_length > 32:
            raise AddressError(f"prefix length out of range: {new_length}")
        step = 1 << (32 - new_length)
        for net in range(self.network, self.network + self.num_addresses, step):
            yield Prefix(net, new_length)

    def supernet(self, new_length: int) -> "Prefix":
        """The covering prefix at ``new_length`` bits (must be shorter)."""
        if new_length > self.length:
            raise AddressError(f"/{new_length} is more specific than /{self.length}")
        return Prefix(self.network, new_length)

    def overlaps(self, other: "Prefix") -> bool:
        """True when the two prefixes share any address."""
        return self.contains(other.first_address) or other.contains(self.first_address)

    def __str__(self) -> str:
        # Rendered once per instance (the fields never change); the text
        # lives in the instance dict, outside equality and hashing.
        try:
            return self._text
        except AttributeError:
            text = self.__dict__["_text"] = (
                f"{IPv4Address(self[0])}/{self[1]}"
            )
            return text

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
