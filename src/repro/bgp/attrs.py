"""BGP path attributes, backed by a canonicalizing intern pool.

The framework emulates one Quagga-style BGP speaker per AS, so paths are
sequences of AS numbers (AS_PATH), plus the standard attributes the
decision process consumes: ORIGIN, LOCAL_PREF, MED.  NEXT_HOP is implicit
in the point-to-point session a route was learned over.

At Internet scale (thousands of ASes) the same attribute values appear in
millions of Adj-RIB entries at once: every router on a propagation tree
holds a route whose AS_PATH differs only by its own prepend, and whole
subtrees share identical suffixes.  Both :class:`AsPath` and
:class:`PathAttributes` are therefore *interned*: construction is
canonicalized through a weak-value pool, so content-equal instances are
the same object.  That gives

- one tuple of ASNs per distinct path, shared across all holders,
- a hash computed once per distinct value (``__hash__`` is a field read),
- identity-fast equality on the hot RIB-diff paths, and
- a cached ASN membership set so RFC 4271 §9.1.2 loop detection is O(1)
  per route instead of O(len(path)).

The pool holds only weak references, so values die with their last RIB
entry; nothing leaks across experiments.  Both classes keep the frozen
dataclass surface they replaced — keyword constructors, value equality
against non-interned lookalikes (e.g. unpickled from another process),
``AttributeError`` on assignment — so they are drop-in.
"""

from __future__ import annotations

import enum
import weakref
from typing import Dict, Iterable, Iterator, Optional, Tuple

__all__ = [
    "Origin",
    "AsPath",
    "PathAttributes",
    "DEFAULT_LOCAL_PREF",
    "intern_stats",
]

#: RFC 4271 recommends 100 as the default LOCAL_PREF.
DEFAULT_LOCAL_PREF = 100


class Origin(enum.IntEnum):
    """ORIGIN attribute; lower is preferred in the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class AsPath:
    """An AS_PATH as an AS_SEQUENCE of AS numbers (leftmost = most recent).

    Immutable and interned: ``AsPath((1, 2)) is AsPath((1, 2))``.
    Prepending returns a new (pooled) path.  Loop detection is a
    membership test against a lazily cached ASN set, as in RFC 4271
    §9.1.2 but O(1) per test.
    """

    __slots__ = ("asns", "_hash", "_members", "_text", "__weakref__")

    _pool: "weakref.WeakValueDictionary[Tuple[int, ...], AsPath]" = (
        weakref.WeakValueDictionary()
    )
    _hits: int = 0

    def __new__(cls, asns: Iterable[int] = ()) -> "AsPath":
        key = tuple(asns)
        cached = cls._pool.get(key)
        if cached is not None:
            cls._hits += 1
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "asns", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_members", None)
        cls._pool[key] = self
        return self

    @classmethod
    def of(cls, *asns: int) -> "AsPath":
        """Construct from positional AS numbers."""
        return cls(asns)

    @classmethod
    def from_iterable(cls, asns: Iterable[int]) -> "AsPath":
        """Construct from any iterable of AS numbers."""
        return cls(tuple(asns))

    def prepend(self, asn: int, count: int = 1) -> "AsPath":
        """Prepend ``asn`` ``count`` times (count > 1 = path prepending)."""
        if count < 1:
            raise ValueError(f"count must be >= 1: {count!r}")
        return AsPath((asn,) * count + self.asns)

    def prepend_sequence(self, asns: Iterable[int]) -> "AsPath":
        """Prepend a whole AS sequence (used by the IDR controller when it
        re-advertises a route that crosses several cluster member ASes)."""
        return AsPath(tuple(asns) + self.asns)

    @property
    def members(self) -> frozenset:
        """The ASNs on the path as a set, computed once per pooled path."""
        cached = self._members
        if cached is None:
            cached = frozenset(self.asns)
            object.__setattr__(self, "_members", cached)
        return cached

    def contains(self, asn: int) -> bool:
        """Membership test (loop detection) — O(1) via the cached set."""
        return asn in self.members

    @property
    def length(self) -> int:
        """Number of ASes in the path."""
        return len(self.asns)

    @property
    def origin_as(self) -> Optional[int]:
        """The AS that originated the route (rightmost), or None if empty."""
        return self.asns[-1] if self.asns else None

    @property
    def first_as(self) -> Optional[int]:
        """The neighbor AS the route was heard from (leftmost)."""
        return self.asns[0] if self.asns else None

    def __len__(self) -> int:
        return len(self.asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, AsPath):
            return self.asns == other.asns
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Re-intern on unpickle so cross-process copies rejoin the pool.
        return (AsPath, (self.asns,))

    def __str__(self) -> str:
        # Rendered once per pooled path: every trace payload naming this
        # path shares the one string.  The slot stays unset until first
        # asked, so constructing a path does nothing for it.
        try:
            return self._text
        except AttributeError:
            text = " ".join(map(str, self.asns)) if self.asns else "(empty)"
            object.__setattr__(self, "_text", text)
            return text

    def __repr__(self) -> str:
        return f"AsPath({self.asns!r})"


class PathAttributes:
    """The attribute set attached to an announced prefix.

    Immutable and interned like :class:`AsPath`: content-equal attribute
    sets are one object no matter how many RIB entries hold them, and
    the ``with_*`` copy helpers return pooled instances too.
    """

    __slots__ = (
        "as_path",
        "origin",
        "local_pref",
        "med",
        "_hash",
        "__weakref__",
    )

    _pool: "weakref.WeakValueDictionary[tuple, PathAttributes]" = (
        weakref.WeakValueDictionary()
    )
    _hits: int = 0

    def __new__(
        cls,
        as_path: Optional[AsPath] = None,
        origin: Origin = Origin.IGP,
        local_pref: int = DEFAULT_LOCAL_PREF,
        med: int = 0,
    ) -> "PathAttributes":
        if as_path is None:
            as_path = AsPath()
        origin = Origin(origin)
        key = (as_path, origin, local_pref, med)
        cached = cls._pool.get(key)
        if cached is not None:
            cls._hits += 1
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "as_path", as_path)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "local_pref", local_pref)
        object.__setattr__(self, "med", med)
        object.__setattr__(self, "_hash", hash(key))
        cls._pool[key] = self
        return self

    def with_path(self, as_path: AsPath) -> "PathAttributes":
        """Copy with a different AS path."""
        return PathAttributes(
            as_path=as_path, origin=self.origin,
            local_pref=self.local_pref, med=self.med,
        )

    def with_local_pref(self, local_pref: int) -> "PathAttributes":
        """Copy with a different LOCAL_PREF."""
        return PathAttributes(
            as_path=self.as_path, origin=self.origin,
            local_pref=local_pref, med=self.med,
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, PathAttributes):
            return (
                self.as_path == other.as_path
                and self.origin == other.origin
                and self.local_pref == other.local_pref
                and self.med == other.med
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (
            PathAttributes,
            (self.as_path, self.origin, self.local_pref, self.med),
        )

    def __repr__(self) -> str:
        return (
            f"PathAttributes(as_path={self.as_path!r}, "
            f"origin={self.origin!r}, local_pref={self.local_pref!r}, "
            f"med={self.med!r})"
        )


def intern_stats() -> Dict[str, int]:
    """Live sizes and hit counts of the intern pools.

    Diagnostic only — the pools are weak, so the size numbers shrink as
    RIBs release routes, while the ``*_hits`` counters are cumulative
    per process (every construction that returned an already-pooled
    object).  Scale trials (``repro.experiments.scale``) report sizes
    alongside peak RSS to show how much sharing the pools achieve on
    large topologies; the service ``/metrics`` page exports all four as
    gauges.
    """
    return {
        "as_paths": len(AsPath._pool),
        "as_path_hits": AsPath._hits,
        "path_attributes": len(PathAttributes._pool),
        "path_attribute_hits": PathAttributes._hits,
    }
