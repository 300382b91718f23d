"""Interning + memory-shape tests for the compact route machinery.

The scale refactor (docs/scaling.md) rests on three representation
guarantees, each pinned here:

- equal path attributes are the *same object* (one weak intern pool per
  type, drained automatically when routes die);
- AS-path loop detection is O(1) per check via a cached member set —
  the pre-refactor implementation scanned the tuple per call, which is
  quadratic over a long line topology's convergence;
- every hot per-route / per-message object is slotted, so a 5k-AS run
  is not paying a ``__dict__`` per route, update, and heap event.
"""

import gc
import pickle
import sys
import time

import pytest

from repro.bgp.attrs import AsPath, Origin, PathAttributes, intern_stats
from repro.bgp.messages import BGPKeepalive, BGPOpen, BGPUpdate
from repro.bgp.rib import Route
from repro.eventsim import Simulator
from repro.net.addr import IPv4Address, Prefix
from repro.net.messages import Packet


class TestAsPathInterning:
    def test_equal_construction_is_identical(self):
        assert AsPath.of(3, 2, 1) is AsPath.of(3, 2, 1)
        assert AsPath.from_iterable([3, 2, 1]) is AsPath.of(3, 2, 1)
        assert AsPath() is AsPath.of()

    def test_derived_paths_intern_too(self):
        assert AsPath.of(2, 1).prepend(3) is AsPath.of(3, 2, 1)
        assert AsPath.of(1).prepend_sequence((3, 2)) is AsPath.of(3, 2, 1)

    def test_distinct_paths_are_distinct(self):
        assert AsPath.of(1, 2) is not AsPath.of(2, 1)

    def test_pool_is_weak(self):
        probe = (91001, 91002, 91003)
        gc.collect()  # earlier tests' cyclic garbage may still hold paths
        before = intern_stats()["as_paths"]
        path = AsPath.from_iterable(probe)
        assert intern_stats()["as_paths"] == before + 1
        del path
        gc.collect()
        assert intern_stats()["as_paths"] == before

    def test_members_cached_and_correct(self):
        path = AsPath.of(5, 4, 3)
        assert path.members == frozenset({3, 4, 5})
        # The set is computed once and reused — identity, not equality.
        assert path.members is path.members
        assert path.contains(4)
        assert not path.contains(99)

    def test_pickle_reinterns(self):
        path = AsPath.of(7, 8, 9)
        assert pickle.loads(pickle.dumps(path)) is path

    def test_frozen(self):
        with pytest.raises(AttributeError):
            AsPath.of(1).asns = (2,)  # type: ignore[misc]
        with pytest.raises(AttributeError):
            del AsPath.of(1).asns  # type: ignore[misc]

    def test_foreign_equality_degrades_gracefully(self):
        assert AsPath.of(1) != (1,)
        assert not AsPath.of(1) == "AS1"

    def test_long_path_membership_is_constant_time(self):
        # Regression for the loop-detection hot path: ``contains`` used
        # to scan the asns tuple per call.  On this 20k-hop path, 20k
        # checks under the old code are ~4e8 tuple steps (minutes);
        # with the cached member set they are 20k set probes.
        long_path = AsPath.from_iterable(range(1, 20001))
        assert long_path.contains(20000)  # prime the member cache
        start = time.perf_counter()
        for _ in range(20000):
            assert long_path.contains(10000)
            assert not long_path.contains(30000)
        assert time.perf_counter() - start < 1.0


class TestPathAttributesInterning:
    def test_equal_construction_is_identical(self):
        a = PathAttributes(as_path=AsPath.of(1, 2), local_pref=200)
        b = PathAttributes(as_path=AsPath.of(1, 2), local_pref=200)
        assert a is b

    def test_derived_attributes_intern_too(self):
        base = PathAttributes(local_pref=150)
        assert base.with_path(AsPath.of(9)) is PathAttributes(
            as_path=AsPath.of(9), local_pref=150
        )
        assert base.with_local_pref(150) is base

    def test_origin_normalized_to_enum(self):
        assert PathAttributes(origin=1).origin is Origin.EGP

    def test_pool_is_weak(self):
        gc.collect()
        before = intern_stats()["path_attributes"]
        attrs = PathAttributes(med=91234)
        assert intern_stats()["path_attributes"] == before + 1
        del attrs
        gc.collect()
        assert intern_stats()["path_attributes"] == before

    def test_pickle_reinterns(self):
        attrs = PathAttributes(as_path=AsPath.of(4), med=7)
        assert pickle.loads(pickle.dumps(attrs)) is attrs


class TestMemoryShape:
    def _route(self):
        return Route(Prefix.parse("10.0.1.0/24"),
                     PathAttributes(as_path=AsPath.of(2, 1)), peer_asn=2)

    def _samples(self):
        return [
            AsPath.of(1, 2),
            PathAttributes(),
            self._route(),
            BGPOpen(sender_asn=1, router_id="AS1"),
            BGPKeepalive(sender_asn=1),
            BGPUpdate(sender_asn=1, withdrawn=(Prefix.parse("10.0.1.0/24"),)),
            Packet(IPv4Address.parse("10.0.1.1"),
                   IPv4Address.parse("10.0.2.1")),
            Simulator(seed=0).schedule(0.0, lambda: None),  # an Event
        ]

    def test_no_instance_dicts(self):
        for obj in self._samples():
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_hot_objects_are_pointer_sized(self):
        # A slotted instance is header + one pointer per slot.  With a
        # __dict__ the *empty* dict alone adds ~64 bytes on CPython —
        # these bounds fail immediately if slots regress.
        route = self._route()
        assert sys.getsizeof(route) <= 8 * len(Route.__slots__) + 32
        attrs = PathAttributes()
        assert sys.getsizeof(attrs) <= 8 * len(PathAttributes.__slots__) + 32
        packet = Packet(IPv4Address.parse("10.0.1.1"),
                        IPv4Address.parse("10.0.2.1"))
        assert sys.getsizeof(packet) <= 8 * len(Packet.__slots__) + 40

    def test_prov_slot_still_writable_on_messages(self):
        # Links stamp per-hop provenance onto messages at transmit time;
        # the slot lives on the Message base so slotted subclasses keep
        # accepting it.
        update = BGPUpdate(sender_asn=1)
        update._prov = "ctx"
        assert update._prov == "ctx"
