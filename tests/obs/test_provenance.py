"""End-to-end provenance acceptance tests.

The central invariant: one span per route-affecting record, parented by
causal context, so the DAG's derived per-AS convergence instants equal
the streaming :class:`MeasurementWindow`'s readings *exactly* — on the
paper's 16-AS clique, pure BGP and hybrid alike — while leaving every
measured result bit-identical to a span-free run.
"""

import json

import pytest

from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    run_scenario_full,
    sdn_set_for,
)
import repro.eventsim
import repro.framework.convergence
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.net.addr import Prefix
from repro.obs import STATE_CHANGING, ProvenanceDAG, Span
from repro.topology.builders import clique
from tests.conftest import make_bgp_mesh


def traced_withdrawal(n, sdn_count, *, seed=3, mrai=30.0):
    scenario = WithdrawalScenario()
    topology = scenario.topology(n, clique)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    config = paper_config(seed=seed, mrai=mrai, spans=True)
    return run_scenario_full(scenario, topology, members, config)


class TestStateChangingMirror:
    def test_local_set_matches_framework(self):
        # declared once, in eventsim/bus.py: obs and framework re-export
        # that one object, so the sets cannot drift apart.
        assert STATE_CHANGING is repro.eventsim.STATE_CHANGING
        assert repro.framework.convergence.STATE_CHANGING is STATE_CHANGING


class TestSixteenAsCliqueAcceptance:
    @pytest.fixture(scope="class", params=[0, 4])
    def run(self, request):
        measurement, metrics, spans = traced_withdrawal(16, request.param)
        return measurement, spans

    def test_single_root_is_the_withdrawal(self, run):
        measurement, spans = run
        dag = ProvenanceDAG.from_dicts(spans)
        roots = dag.roots(since=measurement.t_event)
        assert len(roots) == 1
        assert roots[0].category == "bgp.withdraw"
        assert roots[0].span_id == measurement.extra["event_root_span"]

    def test_per_as_instants_match_tracker_exactly(self, run):
        measurement, spans = run
        dag = ProvenanceDAG.from_dicts(spans)
        root = measurement.extra["event_root_span"]
        assert dag.convergence_instant(root) == measurement.t_converged
        assert dag.state_instant(root) == measurement.t_state_converged
        instants = dag.per_node_instants(root)
        assert max(instants.values()) == measurement.t_converged

    def test_subtree_counts_match_measurement_counters(self, run):
        measurement, spans = run
        dag = ProvenanceDAG.from_dicts(spans)
        root = measurement.extra["event_root_span"]
        by_cat = {}
        for span in dag.subtree(root):
            by_cat[span.category] = by_cat.get(span.category, 0) + 1
        # State changes during the measured window are attributable to
        # the withdrawal alone.
        assert by_cat.get("bgp.decision", 0) == measurement.decision_changes
        assert by_cat.get("fib.change", 0) == measurement.fib_changes
        # The window's update counters additionally include trailing
        # MRAI-paced re-advertisements of the *prior* announcement that
        # fire just after injection; provenance separates those out.
        # Subtree + other-cause spans inside the window == window total.
        t0, t1 = measurement.t_event, measurement.t_settled
        in_tree = {s.span_id for s in dag.subtree(root)}
        for category, window_total in (
            ("bgp.update.tx", measurement.updates_tx),
            ("bgp.update.rx", measurement.updates_rx),
        ):
            in_window = [
                s for s in dag.spans
                if s.category == category and t0 <= s.t_end <= t1
            ]
            stray = [s for s in in_window if s.span_id not in in_tree]
            assert by_cat.get(category, 0) + len(stray) == window_total
            # every stray update belongs to an older cause, not ours
            assert all(s.cause_id < root for s in stray)

    def test_every_span_reaches_its_cause(self, run):
        _, spans = run
        dag = ProvenanceDAG.from_dicts(spans)
        for span in dag.spans:
            chain = dag.parent_chain(span.span_id)
            assert chain[-1].parent_id is None
            assert chain[-1].span_id == span.cause_id


class TestDeterminism:
    def test_results_bit_identical_with_spans_on_and_off(self):
        outcomes = []
        for spans_on in (True, False):
            topo = clique(8)
            exp = Experiment(
                topo, sdn_members={6, 7, 8},
                config=ExperimentConfig(seed=11, spans=spans_on),
            ).start()
            prefix = exp.as_prefix(3)
            m = measure_event(exp, lambda: exp.withdraw(3, prefix))
            outcomes.append(
                (
                    m.t_converged,
                    m.t_state_converged,
                    m.updates_tx,
                    m.updates_rx,
                    m.decision_changes,
                    m.fib_changes,
                    dict(exp.net.bus.counts),
                    exp.net.sim.events_processed,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_spans_reproducible_across_runs(self):
        # ``update_id`` included: UPDATEs are numbered per run.
        a = traced_withdrawal(6, 2, seed=5, mrai=2.0)[2]
        b = traced_withdrawal(6, 2, seed=5, mrai=2.0)[2]
        assert a == b


class TestExplanatoryMetrics:
    @pytest.fixture(scope="class")
    def dag_and_measurement(self):
        measurement, _, spans = traced_withdrawal(8, 0, seed=2, mrai=5.0)
        return ProvenanceDAG.from_dicts(spans), measurement

    def test_path_exploration_depth_positive_for_withdrawal(
        self, dag_and_measurement
    ):
        dag, measurement = dag_and_measurement
        root = measurement.extra["event_root_span"]
        depth = dag.path_exploration_depth(root)
        # A clique withdrawal explores alternate paths before giving up.
        assert depth and max(depth.values()) > 1

    def test_mrai_wait_total_positive(self, dag_and_measurement):
        dag, measurement = dag_and_measurement
        root = measurement.extra["event_root_span"]
        assert dag.mrai_wait_total(root) > 0.0

    def test_summary_is_json_ready(self, dag_and_measurement):
        import json

        dag, measurement = dag_and_measurement
        root = measurement.extra["event_root_span"]
        text = json.dumps(dag.summary(root))
        assert "per_node_instants" in text

    def test_timeline_sorted_by_time(self, dag_and_measurement):
        dag, measurement = dag_and_measurement
        root = measurement.extra["event_root_span"]
        timeline = dag.timeline(root)
        keys = [(s.t_end, s.span_id) for s in timeline]
        assert keys == sorted(keys)


class TestMultiRootFaultSchedules:
    """Per-root explanatory metrics on overlapping measurement windows.

    A fault schedule firing a second fault while the first is still
    converging yields multiple root-cause spans whose causal trees
    interleave in time; ``mrai_wait_total`` and
    ``path_exploration_depth`` must stay per-tree quantities — summing
    only the root's own subtree — or overlapping windows would double
    count each other's waits.
    """

    @pytest.fixture(scope="class")
    def faulted(self):
        from repro.faults import FaultInjector, FaultSchedule

        topo = clique(6)
        members = sdn_set_for(topo, 0, frozenset({1, 2}))
        exp = Experiment(
            topo, sdn_members=members,
            config=paper_config(seed=1, mrai=20.0, spans=True),
        ).start()
        for asn in (1, 2):
            exp.announce(asn, exp.as_prefix(asn))
        exp.wait_converged()
        t_first = exp.net.sim.now + 1.0
        # second fault 2s later: well inside the first window (MRAI 20s
        # keeps the first event converging for tens of seconds)
        schedule = (
            FaultSchedule()
            .link_down(1, 3, at=1.0)
            .link_down(2, 4, at=3.0)
        )
        result = FaultInjector(exp, schedule).run()
        assert result.ok, result.violations
        dag = ProvenanceDAG.from_dicts(exp.spans_snapshot())
        roots = dag.roots(since=t_first)
        return exp, dag, roots, result

    def test_each_fault_opens_its_own_root(self, faulted):
        _, _, roots, _ = faulted
        assert len(roots) >= 2
        starts = sorted(r.t_start for r in roots)
        # the windows overlap: the second root fires before the first
        # tree's convergence (MRAI 20s >> the 2s stagger)
        assert starts[1] - starts[0] < 20.0

    def test_mrai_wait_total_is_per_tree(self, faulted):
        _, dag, roots, _ = faulted
        per_root = [dag.mrai_wait_total(r.span_id) for r in roots]
        assert all(w >= 0.0 for w in per_root)
        assert sum(per_root) > 0.0
        # each total sums only that root's subtree: recomputing by hand
        # over the subtree must agree exactly
        for root, expected in zip(roots, per_root):
            manual = sum(
                float(span.data.get("mrai_wait", 0.0))
                for span in dag.subtree(root.span_id)
                if span.category == "bgp.update.tx"
            )
            assert manual == expected
        # and the trees are disjoint: the union of subtree tx waits
        # equals the sum of the per-root totals
        seen = set()
        union = 0.0
        for root in roots:
            for span in dag.subtree(root.span_id):
                if (
                    span.category == "bgp.update.tx"
                    and span.span_id not in seen
                ):
                    seen.add(span.span_id)
                    union += float(span.data.get("mrai_wait", 0.0))
        assert union == pytest.approx(sum(per_root), rel=1e-12)

    def test_path_exploration_depth_per_root(self, faulted):
        _, dag, roots, _ = faulted
        for root in roots:
            depth = dag.path_exploration_depth(root.span_id)
            # every decision in this tree concerns a prefix the fault
            # disturbed; depths are positive counts
            assert all(d >= 1 for d in depth.values())
        # the two faults disturb different prefixes from different
        # origins, so at least one root explores a prefix the other
        # does not chart at the same depth profile
        profiles = [
            dag.path_exploration_depth(r.span_id) for r in roots
        ]
        assert profiles[0] != profiles[1]

    def test_anatomy_exact_on_every_root(self, faulted):
        from repro.obs.anatomy import anatomize, check_anatomy

        _, dag, roots, _ = faulted
        for root in roots:
            anatomy = anatomize(dag, root.span_id)
            if not anatomy.nodes:
                continue
            assert check_anatomy(anatomy.to_dict()) == []
            assert anatomy.t_converged == dag.convergence_instant(
                root.span_id
            )


class TestLiveTrialPayloads:
    """Payload ownership and shape on a live hybrid trial (clique n = 8,
    3 SDN members) with every record taken, metrics and spans on — and,
    for the cache round trip, anatomy."""

    @pytest.fixture(scope="class")
    def live_records(self):
        """Every record of the ``live`` trial (``live`` fills it)."""
        return []

    @pytest.fixture(scope="class")
    def live(self, live_records):
        scenario = WithdrawalScenario()
        topology = scenario.topology(8, clique)
        members = sdn_set_for(topology, 3, scenario.reserved_legacy)
        exp = Experiment(
            topology, sdn_members=members, name=scenario.name,
            config=paper_config(
                seed=7, trace_level="full", metrics=True, spans=True
            ),
        ).build()
        exp.net.bus.subscribe(live_records.append)
        scenario.configure(exp)
        exp.start()
        scenario.prepare(exp)
        measure_event(exp, lambda: scenario.event(exp))
        scenario.finish(exp)
        return exp

    def test_trace_records_carry_no_span_annotations(self, live, live_records):
        annotated = [
            s for s in live.spans.spans
            if "mrai_wait" in s.data or "debounce_wait" in s.data
        ]
        assert {s.category for s in annotated} == {
            "bgp.update.tx", "controller.recompute",
        }
        for record in live_records:
            assert "mrai_wait" not in record.data
            assert "debounce_wait" not in record.data

    def test_tx_and_rx_records_of_an_update_share_its_rendering(
        self, live, live_records
    ):
        by_update = {}
        for record in live_records:
            if record.category in ("bgp.update.tx", "bgp.update.rx"):
                by_update.setdefault(record.data["update_id"], []).append(
                    record
                )
        received = 0
        for records in by_update.values():
            tx = records[0]
            assert tx.category == "bgp.update.tx"
            for rx in records[1:]:
                assert rx.category == "bgp.update.rx"
                assert rx.data["announced"] is tx.data["announced"]
                assert rx.data["withdrawn"] is tx.data["withdrawn"]
                received += 1
        assert received == live.net.bus.counts["bgp.update.rx"]

    def test_snapshot_is_its_own_json_round_trip(self, live):
        snapshot = live.spans_snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_span_dict_round_trip_is_the_span(self, live):
        for span in live.spans.spans:
            assert Span.from_dict(span.to_dict()) == span

    def test_cached_record_equals_the_live_one(self, tmp_path):
        from repro.runner.cache import ResultCache
        from repro.runner.jobs import RunSpec, execute_spec

        spec = RunSpec(
            scenario_factory=WithdrawalScenario, topology_factory=clique,
            n=8, sdn_count=3, seed=7, trace_level="full", metrics=True,
            spans=True, anatomy=True,
        )
        record = execute_spec(spec)
        cache = ResultCache(tmp_path)
        cache.put(spec, record)
        hit = cache.get(spec)
        assert record.spans and hit.spans == record.spans
        assert record.anatomy and hit.anatomy == record.anatomy


class TestUnsentPrefixSpendsItsCause:
    """An output run that leaves a dirty prefix unsent (split horizon, an
    export deny, no diff) spends the cause that dirtied it: the prefix's
    next UPDATE is parented under the cause that dirtied it next, and its
    pacing wait is timed from there."""

    def test_next_update_parented_under_the_new_cause(self, net):
        tracker = net.enable_spans()
        a, b = make_bgp_mesh(net, 2)
        toward_a = next(iter(b.sessions.values()))
        prefix = Prefix.parse("192.168.0.0/24")
        # Cause A: b learns the prefix from a, so b's run toward a sends
        # nothing about it (split horizon).
        a.originate(prefix)
        net.sim.run_until_settled()
        assert b.loc_rib.get(prefix).peer_name == "as1"
        assert toward_a._pending_obs == {}
        # Cause B, later: b originates the prefix itself, and the local
        # route goes to a.
        net.sim.run(until=net.sim.now + 5.0)
        t_b = net.sim.now
        b.originate(prefix)
        net.sim.run_until_settled()
        (root_b,) = [
            s for s in tracker.spans
            if s.category == "bgp.originate" and s.node == "as2"
        ]
        (tx,) = [
            s for s in tracker.spans
            if s.category == "bgp.update.tx" and s.node == "as2"
            and s.data["peer"] == "as1"
        ]
        assert tx.cause_id == root_b.span_id
        assert tx.t_start == t_b
        assert tx.data["mrai_wait"] == pytest.approx(tx.t_end - t_b)
