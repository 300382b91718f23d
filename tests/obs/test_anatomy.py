"""Convergence-anatomy acceptance tests.

The central claim: for every AS, the critical-path delay attribution is
an *exact* decomposition — the fixed-order category sum equals the AS's
convergence instant minus the event time, bit for bit, against the
streaming :class:`MeasurementWindow`'s readings — on the paper's 16-AS
clique, pure BGP and hybrid alike.  Everything else (reports,
aggregation, record plumbing) is built on that invariant.
"""

import json
import math

import pytest

from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    run_scenario_full,
    sdn_set_for,
)
from repro.obs import ProvenanceDAG
from repro.obs.anatomy import (
    ANATOMY_CATEGORIES,
    aggregate_anatomy,
    anatomize,
    anatomy_json,
    anatomy_markdown,
    anatomy_payload,
    anatomy_report,
    check_anatomy,
    critical_spans,
)
from repro.topology.builders import clique


def traced_withdrawal(n, sdn_count, *, seed=3, mrai=30.0):
    scenario = WithdrawalScenario()
    topology = scenario.topology(n, clique)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    config = paper_config(seed=seed, mrai=mrai, spans=True)
    return run_scenario_full(scenario, topology, members, config)


class TestSixteenAsCliqueExactness:
    @pytest.fixture(scope="class", params=[0, 8], ids=["pure-bgp", "hybrid"])
    def run(self, request):
        measurement, _, spans = traced_withdrawal(16, request.param)
        dag = ProvenanceDAG.from_dicts(spans)
        root = measurement.extra["event_root_span"]
        return measurement, dag, anatomize(dag, root), request.param

    def test_exact_sum_per_as(self, run):
        measurement, dag, anatomy, _ = run
        assert anatomy.nodes
        for name, node in anatomy.nodes.items():
            total = 0.0
            for category in ANATOMY_CATEGORIES:
                total += node.categories[category]
            # bit-exact, not approximately: the fixed-order float sum
            # reproduces the measured duration with zero error
            assert total == node.total, name
            assert node.total == node.instant - anatomy.t_event, name

    def test_instants_match_tracker_exactly(self, run):
        measurement, dag, anatomy, _ = run
        root = anatomy.root_id
        instants = dag.per_node_instants(root)
        assert {
            name: node.instant for name, node in anatomy.nodes.items()
        } == instants
        assert anatomy.t_converged == measurement.t_converged
        critical = anatomy.critical
        assert critical is not None
        assert critical.instant == measurement.t_converged

    def test_check_anatomy_passes(self, run):
        measurement, _, anatomy, _ = run
        assert check_anatomy(
            anatomy.to_dict(), t_converged=measurement.t_converged
        ) == []

    def test_debounce_only_in_hybrid(self, run):
        _, _, anatomy, sdn_count = run
        debounce = sum(
            node.categories["debounce_wait"]
            for node in anatomy.nodes.values()
        )
        if sdn_count == 0:
            assert debounce == 0.0
        else:
            assert debounce > 0.0

    def test_mrai_dominates_pure_bgp(self, run):
        # the paper's mechanism: with MRAI 30s the wait dwarfs
        # propagation and processing on the critical path
        _, _, anatomy, sdn_count = run
        if sdn_count != 0:
            pytest.skip("pure-BGP only")
        categories = anatomy.categories
        assert categories["mrai_wait"] > categories["propagation"]
        assert categories["mrai_wait"] > categories["processing"]

    def test_critical_spans_are_route_affecting_maxima(self, run):
        _, dag, anatomy, _ = run
        spans = critical_spans(dag, anatomy.root_id)
        for name, span in spans.items():
            assert span.node == name
            assert span.t_end == anatomy.nodes[name].instant

    def test_waterfall_steps_cover_total(self, run):
        # the per-step amounts are the named categories re-listed in
        # causal order; their sum matches the total up to float
        # reassociation (the bit-exact guarantee lives on the
        # fixed-order category sum, where queueing closes the books)
        _, _, anatomy, _ = run
        for name, node in anatomy.nodes.items():
            total = 0.0
            for _, _, _, _, _, amount in node.steps:
                total += amount
            assert total == pytest.approx(node.total, rel=1e-9), name


class TestReportsAndPayloads:
    @pytest.fixture(scope="class")
    def anatomy(self):
        measurement, _, spans = traced_withdrawal(8, 3, seed=1, mrai=2.0)
        dag = ProvenanceDAG.from_dicts(spans)
        return anatomize(dag, measurement.extra["event_root_span"])

    def test_report_names_critical_as(self, anatomy):
        text = anatomy_report(anatomy)
        assert "Convergence anatomy" in text
        assert anatomy.critical_node in text
        assert "critical path of" in text

    def test_report_expands_requested_node(self, anatomy):
        some = sorted(anatomy.nodes)[0]
        text = anatomy_report(anatomy, node=some)
        assert f"critical path of {some}" in text

    def test_markdown_has_category_columns(self, anatomy):
        text = anatomy_markdown(anatomy)
        for category in ANATOMY_CATEGORIES:
            assert category in text

    def test_json_round_trips(self, anatomy):
        payload = json.loads(anatomy_json(anatomy))
        assert payload["critical_node"] == anatomy.critical_node
        assert check_anatomy(payload) == []

    def test_payload_skips_unknown_root(self, anatomy):
        assert anatomy_payload([], None) is None
        assert anatomy_payload([], 10**9) is None

    def test_to_dict_is_compact(self, anatomy):
        payload = anatomy.to_dict()
        for node in payload["nodes"].values():
            assert "steps" not in node


class TestAggregation:
    def test_aggregate_medians(self):
        payloads = []
        for seed in (1, 2, 3):
            measurement, _, spans = traced_withdrawal(
                6, 2, seed=seed, mrai=2.0
            )
            payloads.append(
                anatomy_payload(
                    spans, measurement.extra["event_root_span"]
                )
            )
        agg = aggregate_anatomy(payloads)
        assert agg["runs"] == 3
        for category in ANATOMY_CATEGORIES:
            assert category in agg["categories"]
            assert math.isfinite(agg["categories"][category])
        assert agg["total"] >= agg["categories"]["mrai_wait"]

    def test_aggregate_ignores_missing(self):
        assert aggregate_anatomy([None, None]) is None
        measurement, _, spans = traced_withdrawal(6, 0, seed=1, mrai=2.0)
        payload = anatomy_payload(
            spans, measurement.extra["event_root_span"]
        )
        agg = aggregate_anatomy([None, payload, None])
        assert agg["runs"] == 1


class TestCheckAnatomyRejectsCorruption:
    @pytest.fixture()
    def payload(self):
        measurement, _, spans = traced_withdrawal(6, 0, seed=1, mrai=2.0)
        return anatomy_payload(
            spans, measurement.extra["event_root_span"]
        ), measurement

    def test_detects_tampered_category(self, payload):
        payload, _ = payload
        name = next(iter(sorted(payload["nodes"])))
        payload["nodes"][name]["categories"]["mrai_wait"] += 0.25
        assert check_anatomy(payload) != []

    def test_detects_wrong_t_converged(self, payload):
        payload, measurement = payload
        assert check_anatomy(
            payload, t_converged=measurement.t_converged + 1.0
        ) != []
