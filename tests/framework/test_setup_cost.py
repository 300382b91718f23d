"""What keeps a large build cheap: one policy object per relationship,
a bounded object count per session, and no full collections while the
graph is under construction (docs/scaling.md, "Set-up cost")."""

import gc
import sys
import threading

import pytest

from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.policy import LOCAL_COMMUNITY, Relationship
from repro.experiments.common import paper_config
from repro.framework import experiment as experiment_module
from repro.framework.experiment import (
    Experiment,
    ExperimentError,
    _full_collections_held,
)
from repro.net.addr import Prefix
from repro.topology.builders import clique
from repro.topology.caida import caida_hierarchy

PFX = Prefix.parse("192.168.7.0/24")
OWN_ROUTE = PathAttributes(AsPath.of(1), communities=(LOCAL_COMMUNITY,))


def hierarchy(n=300, **options):
    """The scale trial's shape (``scale_spec``) at a tier-1 size."""
    config = paper_config(
        seed=1, policy_mode="gao_rexford", trace_level="off",
        lean=True, **options,
    )
    return Experiment(caida_hierarchy(n), config=config)


def sessions_of(exp):
    return [s for node in exp.as_nodes() for s in node.sessions.values()]


class TestSharedPolicies:
    def test_one_policy_object_per_relationship(self):
        exp = hierarchy().build()
        by_relationship = {}
        for session in sessions_of(exp):
            by_relationship.setdefault(
                session.policy.relationship, set()
            ).add(id(session.policy))
        assert set(by_relationship) == {
            Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER
        }
        assert all(len(ids) == 1 for ids in by_relationship.values())

    def test_collector_feeds_and_runtime_links_use_the_cache(self):
        exp = Experiment(clique(4)).build()
        feeds = {
            id(node.session_on(link).policy)
            for node in exp.as_nodes()
            for link in node.links if link.kind == "collector"
        }
        assert len(feeds) == 1

        def collector_side():
            return {id(s.policy) for s in exp.collector.sessions.values()}

        assert len(exp.collector.sessions) == 4 and len(collector_side()) == 1
        exp.start()
        added = exp.add_as(9, links=[1, 2])
        flat = exp.node(1).session_on(exp.phys_link(1, 2)).policy
        assert all(
            added.session_on(exp.phys_link(9, peer)).policy is flat
            for peer in (1, 2)
        )
        assert len(exp.collector.sessions) == 5 and len(collector_side()) == 1

    def test_experiments_share_no_policy(self):
        first, second = hierarchy(60).build(), hierarchy(60).build()
        assert not (
            {id(s.policy) for s in sessions_of(first)}
            & {id(s.policy) for s in sessions_of(second)}
        )

    def test_prepend_replaces_one_sessions_policy(self):
        """Shared means read-only: a per-session change is a changed
        copy on that session, and its siblings keep exporting as before."""
        exp = hierarchy().build()
        customers = [
            peer for peer in exp.topology.neighbors(1)
            if exp.topology.link_between(1, peer).relationship_for(1)
            is Relationship.CUSTOMER
        ]
        toward, sibling = customers[:2]

        def exported(peer):
            session = exp.node(1).session_on(exp.phys_link(1, peer))
            return session.policy.export_route(PFX, OWN_ROUTE)

        before = exported(sibling)
        assert exported(toward) == before
        exp.set_export_prepend(1, toward, 3)
        assert list(exported(toward).as_path) == [1, 1, 1, 1]
        assert exported(sibling) == before
        shared = {
            id(s.policy) for s in sessions_of(exp)
            if s.policy.relationship is Relationship.CUSTOMER
        }
        assert len(shared) == 2  # the cache's, and the one changed copy


class TestAllocationBudget:
    #: GC-tracked objects ``build()`` may add per session at 300 ASes.
    #: A private policy graph per session read 41.4 here (40.1 at 5000
    #: ASes), shared policies read 15.3 (12.0); the ceiling sits midway
    #: so the graph coming back fails here, not in the 5k benchmark.
    CEILING = 28.0

    def test_build_objects_per_session(self):
        exp = hierarchy()
        gc.collect()
        before = len(gc.get_objects())
        exp.build()
        gc.collect()
        added = len(gc.get_objects()) - before
        sessions = len(sessions_of(exp))
        assert sessions == 960
        assert added / sessions < self.CEILING


@pytest.fixture
def collector_state():
    """Whatever a test does to the collector, the next one starts from
    what this one found."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    try:
        yield thresholds
    finally:
        gc.set_threshold(*thresholds)
        (gc.enable if enabled else gc.disable)()


class TestFullCollectionsHeld:
    def test_thresholds_restored_after_build_and_start(self, collector_state):
        exp = Experiment(clique(4))
        exp.build()
        assert gc.get_threshold() == collector_state
        exp.start()
        assert gc.get_threshold() == collector_state

    def test_thresholds_restored_when_build_raises(self, collector_state):
        exp = Experiment(clique(3)).build()
        for _ in range(2):
            with pytest.raises(ExperimentError):
                exp.build()
            assert gc.get_threshold() == collector_state

    def test_only_full_collections_are_held(self, collector_state):
        young, middle, _ = collector_state
        with _full_collections_held():
            held = gc.get_threshold()
            with _full_collections_held():  # start() builds when unbuilt
                assert gc.get_threshold() == held
            assert gc.get_threshold() == held
        assert held[:2] == (young, middle) and held[2] > 10**6
        assert gc.get_threshold() == collector_state

    def test_young_collections_still_run(self, collector_state):
        exp = hierarchy()
        young_before = gc.get_stats()[0]["collections"]
        full_before = gc.get_stats()[2]["collections"]
        exp.build()
        assert gc.get_stats()[0]["collections"] > young_before
        assert gc.get_stats()[2]["collections"] == full_before

    def test_callers_own_thresholds_come_back(self, collector_state):
        gc.set_threshold(900, 7, 5)
        Experiment(clique(3)).start()
        assert gc.get_threshold() == (900, 7, 5)

    def test_disabled_collector_is_left_alone(self, collector_state):
        gc.disable()
        with _full_collections_held():
            assert gc.get_threshold() == collector_state
        Experiment(clique(3)).start()
        assert not gc.isenabled()
        assert gc.get_threshold() == collector_state

    def test_concurrent_builds_restore_once_all_are_out(self, collector_state):
        """``repro serve --concurrency N`` builds on threads of one
        process: nobody inside the hold may see it lifted by a
        neighbour leaving, and the last one out restores."""
        lifted_early = []
        errors = []

        def trials():
            try:
                for _ in range(40):
                    with _full_collections_held():
                        Experiment(clique(3)).build()
                        if gc.get_threshold() == collector_state:
                            lifted_early.append(1)
            except Exception as exc:  # surfaced below, not lost in a thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=trials) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and not lifted_early
        assert experiment_module._hold_depth == 0
        assert gc.get_threshold() == collector_state
