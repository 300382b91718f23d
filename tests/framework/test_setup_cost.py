"""What keeps a large build cheap: one policy object per relationship,
a bounded object count per session, and no collections while a trial
is alive (docs/scaling.md, "Set-up cost")."""

import gc
import sys
import tracemalloc

import pytest

from repro.bgp import rib
from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.policy import Relationship
from repro.bgp.rib import NO_RIB_IN, NO_RIB_OUT, AdjRibIn, AdjRibOut
from repro.bgp.router import BGPRouter
from repro.controller.speaker import ClusterBGPSpeaker
from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    run_scenario_full,
    sdn_set_for,
)
from repro.framework import experiment as experiment_module
from repro.framework.convergence import measure_event
from repro.framework.experiment import (
    Experiment,
    ExperimentError,
    _full_collections_held,
)
from repro.net.addr import IPv4Address, Prefix
from repro.topology.builders import clique
from repro.topology.caida import caida_hierarchy

PFX = Prefix.parse("192.168.7.0/24")
OWN_ROUTE = PathAttributes(AsPath())


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
            return session.policy.export_attrs(
                OWN_ROUTE, None, session.local_asn
            )

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
    #: ASes), shared policies read 15.3 (12.0).  Building no Adj-RIB
    #: pair per session and no address objects per link read 10.7 (10.3
    #: since).  Bare kernel events for the MRAI and connect waits, no
    #: dirty set at rest and no bound connect callback read 6.3.  No
    #: bound flush callback per session, no queue per router and no
    #: ``__dict__`` per link read 5.0.  The ceiling sits midway between
    #: the last two readings, so any of them coming back fails here, not
    #: in the 5k benchmark.  Python 3.10 counts every instance's
    #: ``__dict__`` as an object of its own (3.11 makes it on demand), so
    #: it reads 7.7 and 5.9 and gets its own midway ceiling.
    CEILING = 5.6 if sys.version_info >= (3, 11) else 6.8

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


class TestSessionBytes:
    #: bytes ``build()`` plus ``start()`` add per session at 300 ASes,
    #: as tracemalloc counts them: the whole network over its 960
    #: sessions.  Two ``Timer`` objects and a bound connect callback per
    #: session, a 216-byte dirty set and an entry in each of the
    #: router's two Adj-RIB dicts read 2,389; bare events, no dirty set
    #: at rest and session-held Adj-RIBs read 1,789 (2,090 was the
    #: ceiling); Adj-RIBs that hold no dict until their first route, no
    #: bound flush callback, no queue per router and slotted links read
    #: 1,253 against 1,757 on the same host (docs/scaling.md, "Set-up
    #: cost").  The ceiling sits midway.
    CEILING = 1500

    def test_build_and_start_bytes_per_session(self):
        exp = hierarchy()
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            exp.start()
            gc.collect()
            added = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        sessions = len(sessions_of(exp))
        assert sessions == 960
        assert added / sessions < self.CEILING


def instances(*types):
    """How many GC-tracked objects of each type are alive."""
    gc.collect()
    counts = dict.fromkeys(types, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return [counts[t] for t in types]


class TestNothingBuiltAheadOfUse:
    """A session's tables are made when it comes up, and a link keeps
    its transfer net as an index (docs/scaling.md, "Set-up cost")."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: hierarchy(60),
            lambda: Experiment(clique(6), sdn_members={4, 5}),
        ],
        ids=["hierarchy", "hybrid"],
    )
    def test_tables_come_with_the_session(self, make):
        exp = make()
        before = instances(AdjRibIn, AdjRibOut)
        exp.build()
        assert instances(AdjRibIn, AdjRibOut) == before
        for link in exp.net.links:
            assert not [
                value for value in (getattr(link, n) for n in link.__slots__)
                if isinstance(value, (IPv4Address, Prefix, dict))
            ], link
        exp.start()
        sessions = [
            session
            for node in (*exp.as_nodes(), exp.collector, exp.speaker)
            if isinstance(node, (BGPRouter, ClusterBGPSpeaker))
            for session in node.sessions.values()
        ]
        assert sessions and all(s.established for s in sessions)
        # One table of each per session, and no other.
        for tables in (
            {id(s.rib_in) for s in sessions},
            {id(s.rib_out) for s in sessions},
        ):
            assert len(tables) == len(sessions)
        after = instances(AdjRibIn, AdjRibOut)
        assert [n - b for n, b in zip(after, before)] == [len(sessions)] * 2


class TestIdleStateHoldsNothing:
    """A table no route has touched holds the one shared empty mapping,
    and a router with no UPDATE waiting holds no queue (docs/scaling.md,
    "Set-up cost")."""

    def test_only_tables_that_carried_a_route_hold_a_dict(self):
        exp = hierarchy().start()
        sessions = sessions_of(exp)
        assert sessions and all(s.established for s in sessions)

        def idle():
            return all(node._update_queue is None for node in exp.as_nodes())

        def holding(table, attr):
            return {
                id(s) for s in sessions
                if getattr(getattr(s, table), attr) is not rib._EMPTY
            }

        for s in sessions:
            if not len(s.rib_in):
                assert s.rib_in._routes is rib._EMPTY, s
            if not len(s.rib_out):
                assert s.rib_out._sent is rib._EMPTY, s
        assert idle()
        prefix = exp.announce(1)
        exp.wait_converged()
        carried_in = {id(s) for s in sessions if s.rib_in.get(prefix)}
        carried_out = {id(s) for s in sessions if s.rib_out.get(prefix)}
        assert carried_in and carried_out
        exp.withdraw(1, prefix)
        exp.wait_converged()
        assert idle()
        received = {id(s) for s in sessions if s.updates_received}
        sent = {id(s) for s in sessions if s.updates_sent}
        assert carried_in <= holding("rib_in", "_routes") <= received
        assert carried_out <= holding("rib_out", "_sent") <= sent
        assert len(received) < len(sessions)
        assert not len(rib._EMPTY)
        assert not len(NO_RIB_IN) and not len(NO_RIB_OUT)


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


@pytest.fixture
def held_passes():
    """The generation of every collection CPython starts while the hold
    is taken."""
    passes = []

    def record(phase, info):
        if phase == "start" and gc.get_threshold()[0] == 0:
            passes.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield passes
    finally:
        gc.callbacks.remove(record)


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

    def test_every_generation_is_held(self, collector_state, held_passes):
        with _full_collections_held():
            assert gc.get_threshold() == (0, *collector_state[1:])
        assert gc.get_threshold() == collector_state
        hierarchy().start()
        assert held_passes == []

    def test_thresholds_restored_after_a_trial(self, collector_state):
        seen = []
        trial(finish=lambda exp: seen.append(gc.get_threshold()))
        assert seen == [(0, *collector_state[1:])]
        assert gc.get_threshold() == collector_state

    def test_thresholds_restored_when_a_trial_raises(self, collector_state):
        def fail(exp):
            raise RuntimeError("scenario failed")

        for _ in range(2):
            with pytest.raises(RuntimeError, match="scenario failed"):
                trial(finish=fail)
            assert gc.get_threshold() == collector_state

    def test_build_and_start_nest_inside_the_trial(
        self, collector_state, held_passes
    ):
        """``build()`` and ``start()`` inside a trial's hold leave it
        held and run no collection on the way out."""
        seen = []
        trial(finish=lambda exp: seen.append(gc.get_threshold()))
        assert seen == [(0, *collector_state[1:])]
        assert held_passes == []

    def test_a_measured_event_is_held(self, collector_state, held_passes):
        exp = Experiment(clique(4)).start()
        seen = []

        def event():
            seen.append(gc.get_threshold())
            exp.announce(1)

        measure_event(exp, event)
        assert seen == [(0, *collector_state[1:])]
        assert gc.get_threshold() == collector_state
        assert held_passes == []

    def test_thresholds_restored_when_a_measured_event_raises(
        self, collector_state
    ):
        exp = Experiment(clique(3)).start()

        def fail():
            raise RuntimeError("event failed")

        for _ in range(2):
            with pytest.raises(RuntimeError, match="event failed"):
                measure_event(exp, fail)
            assert gc.get_threshold() == collector_state

    def test_a_measured_event_nests_inside_the_trial(
        self, collector_state, held_passes
    ):
        """The trial's own ``measure_event`` leaves its hold as it was
        and runs no collection on the way out."""
        seen = []
        trial(
            event=lambda exp: seen.append(gc.get_threshold()),
            finish=lambda exp: seen.append(gc.get_threshold()),
        )
        assert seen == [(0, *collector_state[1:])] * 2
        assert held_passes == []
        assert gc.get_threshold() == collector_state

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


def trial(finish=None, event=None):
    """One whole 4-AS withdrawal trial; ``event(exp)`` runs as its
    measured event starts, ``finish(exp)`` after it, both inside it."""
    scenario = WithdrawalScenario()
    if finish is not None:
        scenario.finish = finish
    if event is not None:
        withdraw = scenario.event

        def measured(exp):
            event(exp)
            withdraw(exp)

        scenario.event = measured
    topology = scenario.topology(4, clique)
    members = sdn_set_for(topology, 2, scenario.reserved_legacy)
    return run_scenario_full(
        scenario, topology, members, paper_config(seed=1, mrai=1.0)
    )

