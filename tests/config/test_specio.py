"""JSON spec ingestion: precise validation, digest parity, round trips."""

import json

import pytest

from repro.config import (
    SpecIngestError,
    grid_from_json,
    runspec_from_json,
    scenario_names,
    spec_payload,
    specs_from_json,
    topology_names,
)
from repro.experiments.common import (
    FailoverScenario,
    WithdrawalScenario,
    run_fraction_sweep,
)
from repro.faults import get_canned
from repro.runner import RunSpec
from repro.runner.jobs import SPEC_OPTIONS
from repro.topology.builders import clique, ring

from ..runner.test_jobs import make_spec, other_value

BASE = {"scenario": "withdrawal", "n": 8, "sdn_count": 4, "seed": 7}
GRID = {"scenario": "withdrawal", "n": 8, "sdn_counts": [0, 2], "runs": 1}


def errors_of(payload) -> list:
    with pytest.raises(SpecIngestError) as excinfo:
        runspec_from_json(payload)
    return excinfo.value.errors


class TestRunspecFromJson:
    def test_minimal_payload(self):
        spec = runspec_from_json(BASE)
        assert spec.scenario_factory is WithdrawalScenario
        assert spec.topology_factory is clique
        assert (spec.n, spec.sdn_count, spec.seed) == (8, 4, 7)
        assert spec.mrai == 30.0  # dataclass defaults apply

    def test_digest_matches_native_spec(self):
        spec = runspec_from_json({**BASE, "mrai": 1.0})
        native = RunSpec(
            scenario_factory=WithdrawalScenario,
            topology_factory=clique,
            n=8, sdn_count=4, seed=7, mrai=1.0,
        )
        assert spec.digest() == native.digest()

    def test_json_string_accepted(self):
        assert runspec_from_json(json.dumps(BASE)).digest() == (
            runspec_from_json(BASE).digest()
        )

    def test_every_scenario_and_topology_name_resolves(self):
        for scenario in scenario_names():
            for topology in topology_names():
                spec = runspec_from_json(
                    {**BASE, "scenario": scenario, "topology": topology}
                )
                assert spec.digest()

    def test_alternate_scenario_changes_digest(self):
        a = runspec_from_json(BASE)
        b = runspec_from_json({**BASE, "scenario": "failover"})
        assert b.scenario_factory is FailoverScenario
        assert a.digest() != b.digest()

    def test_faults_via_canonical_form(self):
        # JSON round-trips turn the canonical tuples into lists; the
        # ingest path must still canonicalize to the identical tuples.
        schedule = get_canned("gateway-outage").schedule()
        as_json = json.loads(json.dumps(schedule.canonical()))
        spec = runspec_from_json({**BASE, "faults": as_json})
        assert spec.faults == schedule.canonical()

    def test_unknown_field_named_precisely(self):
        errors = errors_of({**BASE, "bogus": 1})
        assert len(errors) == 1
        assert "unknown field 'bogus'" in errors[0]
        assert "scenario" in errors[0]  # lists the known fields

    def test_all_problems_reported_at_once(self):
        errors = errors_of(
            {"scenario": "nope", "n": 1, "metrics": "yes", "junk": 0}
        )
        joined = "\n".join(errors)
        assert len(errors) == 4
        assert "unknown field 'junk'" in joined
        assert "field 'scenario'" in joined
        assert "field 'n'" in joined
        assert "field 'metrics'" in joined

    def test_missing_required_fields(self):
        errors = errors_of({})
        assert any("'scenario' is required" in e for e in errors)
        assert any("'n' is required" in e for e in errors)

    def test_type_confusions_rejected(self):
        assert any(
            "expected an integer" in e for e in errors_of({**BASE, "n": 8.5})
        )
        assert any(
            "expected an integer" in e for e in errors_of({**BASE, "n": True})
        )
        assert any(
            "expected a number" in e
            for e in errors_of({**BASE, "mrai": "slow"})
        )
        assert any(
            "expected a list of integers" in e
            for e in errors_of({**BASE, "sdn_members": "5,6"})
        )

    def test_semantic_checks(self):
        assert any(
            "sdn_count" in e for e in errors_of({**BASE, "sdn_count": 9})
        )
        assert any(
            "sdn_members" in e
            for e in errors_of({**BASE, "sdn_members": [7, 99]})
        )
        assert any(
            "trace_level" in e
            for e in errors_of({**BASE, "trace_level": "loud"})
        )

    def test_malformed_faults_reported_not_raised(self):
        errors = errors_of({**BASE, "faults": {"events": [{"kind": "??"}]}})
        assert any("faults" in e for e in errors)

    def test_non_object_payload(self):
        with pytest.raises(SpecIngestError):
            runspec_from_json([1, 2, 3])
        with pytest.raises(SpecIngestError):
            runspec_from_json("{not json")


class TestGridFromJson:
    def test_matches_run_fraction_sweep_digests(self):
        grid = grid_from_json(
            {
                "scenario": "withdrawal", "n": 6,
                "sdn_counts": [0, 3], "runs": 2, "mrai": 1.0,
            }
        )
        result = run_fraction_sweep(
            WithdrawalScenario, n=6, sdn_counts=[0, 3], runs=2, mrai=1.0
        )
        executed = [run.seed for point in result.points for run in point.runs]
        assert [spec.seed for spec in grid] == executed
        assert [spec.label for spec in grid] == [
            f"withdrawal sdn={c} seed={100 + 1000 * c + i}"
            for c in (0, 3) for i in range(2)
        ]

    def test_default_sdn_counts_cover_zero_to_max(self):
        grid = grid_from_json({"scenario": "withdrawal", "n": 4, "runs": 1})
        assert [spec.sdn_count for spec in grid] == [0, 1, 2, 3]

    def test_expansion_limit(self):
        with pytest.raises(SpecIngestError) as excinfo:
            grid_from_json(
                {"scenario": "withdrawal", "n": 8, "runs": 10_000}
            )
        assert "limit" in str(excinfo.value)

    def test_grid_validation_errors(self):
        with pytest.raises(SpecIngestError) as excinfo:
            grid_from_json(
                {"scenario": "withdrawal", "n": 4, "sdn_counts": [0, 9]}
            )
        assert "sdn_counts" in str(excinfo.value)


class TestSpecsFromJson:
    def test_bare_spec_and_wrapped_spec(self):
        assert len(specs_from_json(BASE)) == 1
        assert len(specs_from_json({"spec": BASE})) == 1

    def test_grid_wrapper(self):
        specs = specs_from_json(
            {"grid": {"scenario": "withdrawal", "n": 4, "runs": 2}}
        )
        assert len(specs) == 8

    def test_both_shapes_rejected(self):
        with pytest.raises(SpecIngestError):
            specs_from_json({"spec": BASE, "grid": {}})

    def test_stray_siblings_rejected(self):
        with pytest.raises(SpecIngestError):
            specs_from_json({"spec": BASE, "extra": 1})


class TestSpecPayload:
    def test_round_trip_preserves_digest(self):
        original = runspec_from_json(
            {
                **BASE,
                "topology": "ring",
                "mrai": 2.0,
                "spans": True,
                "label": "round trip",
            }
        )
        clone = runspec_from_json(spec_payload(original))
        assert clone.digest() == original.digest()
        assert clone.label == original.label

    def test_unregistered_factory_rejected(self):
        from tests.runner.scenarios import RaisingScenario

        spec = RunSpec(
            scenario_factory=RaisingScenario,
            topology_factory=ring,
            n=4, sdn_count=0, seed=1,
        )
        with pytest.raises(SpecIngestError) as excinfo:
            spec_payload(spec)
        assert "no registered name" in str(excinfo.value)


class TestScaleKnobs:
    """``lean`` rides specs and survives round trips without disturbing
    any legacy digest; the engine itself has nothing to select, so
    ``compact`` / ``scheduler`` are unknown fields (docs/scaling.md)."""

    def test_scale_fields_parse(self):
        assert runspec_from_json({**BASE, "lean": True}).lean

    def test_false_knobs_keep_legacy_digest(self):
        # Explicit False must digest identically to absent — old cache
        # entries and registry rows stay addressable.
        legacy = runspec_from_json(BASE)
        explicit = runspec_from_json({**BASE, "lean": False})
        assert explicit.digest() == legacy.digest()

    def test_each_knob_changes_the_digest(self):
        base = runspec_from_json(BASE).digest()
        assert runspec_from_json({**BASE, "lean": True}).digest() != base

    def test_payload_round_trip(self):
        original = runspec_from_json({**BASE, "lean": True})
        payload = spec_payload(original)
        assert payload["lean"] is True
        assert "compact" not in payload and "scheduler" not in payload
        clone = runspec_from_json(payload)
        assert clone.digest() == original.digest()

    def test_knobs_must_be_booleans(self):
        assert any("lean" in e for e in errors_of({**BASE, "lean": "yes"}))

    def test_caida_topology_registered(self):
        from repro.topology import caida_hierarchy

        assert "caida" in topology_names()
        spec = runspec_from_json({**BASE, "topology": "caida"})
        assert spec.topology_factory is caida_hierarchy

    def test_grid_accepts_scale_knobs(self):
        specs = grid_from_json({**GRID, "lean": True})
        assert specs and all(s.lean for s in specs)

    @pytest.mark.parametrize(
        "field, value",
        [("compact", True), ("compact", False),
         ("scheduler", "heap"), ("scheduler", "calendar")],
    )
    def test_engine_names_are_unknown_fields(self, field, value):
        (error,) = errors_of({**BASE, field: value})
        assert error.startswith(f"unknown field {field!r}")
        with pytest.raises(SpecIngestError) as excinfo:
            grid_from_json({**GRID, field: value})
        assert f"unknown field {field!r}" in str(excinfo.value)


class TestFrozenEngineNames:
    """One route store, one queue: nothing constructs with either name,
    and the two read-only names the ledger benchmark still reads
    (``spec.compact`` / ``spec.scheduler`` into ``paper_config``) hold
    the only value there is."""

    def test_no_constructor_takes_the_names(self, net):
        from repro.bgp.router import BGPRouter
        from repro.eventsim import Simulator
        from repro.framework.experiment import ExperimentConfig

        for build in (
            lambda: make_spec(compact=True),
            lambda: make_spec(scheduler="heap"),
            lambda: ExperimentConfig(compact=True),
            lambda: ExperimentConfig(scheduler="heap"),
            lambda: Simulator(scheduler="heap"),
            lambda: BGPRouter(net.sim, "r", asn=1, compact=True),
        ):
            with pytest.raises(TypeError, match="compact|scheduler"):
                build()

    def test_benchmark_call_shape_builds(self):
        from repro.experiments.common import paper_config
        from repro.experiments.scale import scale_spec

        spec = scale_spec(300)
        assert spec.compact is True and spec.scheduler == "heap"
        config = paper_config(
            seed=1, compact=spec.compact, lean=True, scheduler=spec.scheduler
        )
        assert not config.with_collector and not config.originate_all

    @pytest.mark.parametrize(
        "keywords",
        [{"compact": False}, {"compact": 1}, {"scheduler": "calendar"}],
    )
    def test_any_other_value_is_refused(self, keywords):
        from repro.experiments.common import paper_config

        with pytest.raises(ValueError, match="one route store.*one queue"):
            paper_config(seed=1, **keywords)

    def test_scale_spec_digests_without_the_names(self):
        from repro.experiments.common import WithdrawalScenario
        from repro.experiments.scale import SCALE_MRAI, scale_spec
        from repro.topology import caida_hierarchy

        plain = RunSpec(
            scenario_factory=WithdrawalScenario,
            topology_factory=caida_hierarchy,
            n=300, sdn_count=0, seed=0, mrai=SCALE_MRAI,
            policy_mode="gao_rexford", trace_level="off", lean=True,
        )
        described = scale_spec(300).describe()
        assert "compact" not in described and "scheduler" not in described
        assert scale_spec(300).digest() == plain.digest()


class TestDeclaredOptions:
    """Every RunSpec option, walked from its declaration: the JSON
    dialect, grids and the digest all derive from the same table."""

    @pytest.mark.parametrize("option", SPEC_OPTIONS, ids=lambda o: o.name)
    def test_json_round_trip(self, option):
        spec = make_spec(**{option.name: other_value(option)})
        if option.name == "anatomy":
            spec = make_spec(anatomy=True, spans=True)
        payload = spec_payload(spec)
        assert option.metadata.get("json", option.name) in payload
        clone = runspec_from_json(json.loads(json.dumps(payload)))
        assert clone == spec and clone.label == spec.label
        assert clone.digest() == spec.digest()

    @pytest.mark.parametrize("option", SPEC_OPTIONS, ids=lambda o: o.name)
    def test_grid_accepts_exactly_the_flagged_options(self, option):
        name = option.metadata.get("json", option.name)
        value = other_value(option)
        grid = {
            "scenario": "withdrawal", "n": 4, "sdn_counts": [1], "runs": 2,
            "spans": True,
            name: spec_payload(make_spec(**{option.name: value}))[name],
        }
        if option.metadata["grid"]:
            specs = grid_from_json(grid)
            assert len(specs) == 2
            assert all(getattr(s, option.name) == value for s in specs)
        else:
            with pytest.raises(SpecIngestError) as excinfo:
                grid_from_json(grid)
            assert f"unknown field {name!r}" in str(excinfo.value)

    def test_anatomy_rides_specs_and_stays_out_of_the_digest(self):
        plain = runspec_from_json({**BASE, "spans": True})
        spec = runspec_from_json({**BASE, "spans": True, "anatomy": True})
        assert spec.anatomy and not plain.anatomy
        assert spec.digest() == plain.digest()
        assert spec_payload(spec)["anatomy"] is True
        assert "anatomy" not in spec_payload(plain)

    def test_anatomy_without_spans_is_rejected_naming_both(self):
        (error,) = errors_of({**BASE, "anatomy": True})
        assert "'anatomy'" in error and "'spans'" in error
        with pytest.raises(SpecIngestError, match="'anatomy'.*'spans'"):
            grid_from_json({"scenario": "withdrawal", "n": 4, "anatomy": True})

    def test_policy_mode_validated_against_the_implemented_modes(self):
        from repro.framework.experiment import POLICY_MODES

        (error,) = errors_of({**BASE, "policy_mode": "bogus"})
        assert "'policy_mode'" in error
        assert all(mode in error for mode in POLICY_MODES)
        for mode in POLICY_MODES:
            assert runspec_from_json({**BASE, "policy_mode": mode})

    def test_deleted_knob_is_an_ordinary_unknown_field(self):
        (error,) = errors_of({**BASE, "batch" + "_delivery": True})
        assert error.startswith("unknown field")

    @pytest.mark.parametrize(
        "field, value", [("profile", True), ("sample_hz", 100.0)]
    )
    def test_deleted_profilers_are_unknown_fields(self, field, value):
        (error,) = errors_of({**BASE, field: value})
        assert error.startswith(f"unknown field {field!r}")
        with pytest.raises(SpecIngestError) as excinfo:
            grid_from_json({**GRID, field: value})
        assert f"unknown field {field!r}" in str(excinfo.value)
