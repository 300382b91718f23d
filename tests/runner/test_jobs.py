"""RunSpec digests, picklability, and the worker entry point."""

import functools
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.common import FailoverScenario, WithdrawalScenario
from repro.faults import get_canned
from repro.runner import RunSpec, SpecError, callable_token, execute_spec
from repro.runner.jobs import RECORD_PAYLOADS, SPEC_OPTIONS
from repro.topology.builders import clique, ring

from .scenarios import RaisingScenario


def make_spec(**overrides):
    base = dict(
        scenario_factory=WithdrawalScenario,
        topology_factory=clique,
        n=4,
        sdn_count=2,
        seed=7,
        mrai=1.0,
    )
    base.update(overrides)
    return RunSpec(**base)


def other_value(option):
    """A valid value for a declared RunSpec option that differs from
    what :func:`make_spec` gives it — derived from the declaration, so
    a new option is covered by every table-walking test unasked."""
    meta = option.metadata
    current = getattr(make_spec(), option.name)
    if meta["kind"] == "factory":
        return {"scenario": FailoverScenario, "topology": ring}[meta["json"]]
    if meta["kind"] == "bool":
        return not current
    if meta["kind"] == "int":
        return current + 1
    if meta["kind"] == "number":
        return (current or 0.0) + 1.0
    if meta["kind"] == "str":
        return next(
            (c for c in meta.get("choices", ()) if c != current), "other"
        )
    if meta["kind"] == "int_list":
        return (3, 4)
    assert meta["kind"] == "faults"
    return get_canned("gateway-outage").schedule(0).canonical()


def sample_payload(name):
    """A JSON-ready value of the declared type for a RunRecord payload."""
    return {dict: {"k": 1.5}, list: [{"k": 1.5}]}[RECORD_PAYLOADS[name]]


def _digest_in_subprocess(spec):
    return spec.digest()


class TestCallableToken:
    def test_module_level_class(self):
        token = callable_token(WithdrawalScenario)
        assert token == "repro.experiments.common:WithdrawalScenario"

    def test_module_level_function(self):
        assert callable_token(clique) == "repro.topology.builders:clique"

    def test_partial_includes_bound_arguments(self):
        a = callable_token(functools.partial(WithdrawalScenario, origin=2))
        b = callable_token(functools.partial(WithdrawalScenario, origin=3))
        assert a != b
        assert "WithdrawalScenario" in a

    def test_lambda_rejected(self):
        with pytest.raises(SpecError):
            callable_token(lambda n: clique(n))

    def test_local_function_rejected(self):
        def local_factory(n):
            return clique(n)

        with pytest.raises(SpecError):
            callable_token(local_factory)


class TestDigestStability:
    def test_identical_specs_identical_digests(self):
        assert make_spec().digest() == make_spec().digest()

    def test_digest_is_sha256_hex(self):
        digest = make_spec().digest()
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_every_result_determining_field_changes_digest(self):
        """Walks the declarations: a field moves the digest iff its
        rule is not ``never``, and a ``when_set`` field left at its
        default is absent from the payload (legacy digests hold)."""
        base = make_spec()
        for option in SPEC_OPTIONS:
            rule = option.metadata["digest"]
            changed = make_spec(**{option.name: other_value(option)})
            assert (changed.digest() != base.digest()) == (rule != "never"), (
                option.name
            )
            key = option.metadata.get("json", option.name)
            assert (key in base.describe()) == (rule == "always"), key
            assert (key in changed.describe()) == (rule != "never"), key

    def test_spans_flag_changes_digest(self):
        assert make_spec(spans=True).digest() != make_spec().digest()

    def test_spans_default_keeps_legacy_digest(self):
        # spans=False must hash like a spec that predates the field, so
        # existing caches stay warm after the upgrade.
        spec = make_spec()
        assert "spans" not in spec.describe()
        assert "spans" in make_spec(spans=True).describe()

    def test_label_is_cosmetic(self):
        assert make_spec(label="x").digest() == make_spec(label="y").digest()
        assert make_spec(label="x") == make_spec(label="y")

    def test_member_order_does_not_matter(self):
        assert (
            make_spec(sdn_members=(4, 3)).digest()
            == make_spec(sdn_members=(3, 4)).digest()
        )

    def test_stable_across_processes(self):
        spec = make_spec()
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_digest_in_subprocess, spec).result()
        assert remote == spec.digest()

    def test_partial_factory_digest_stable(self):
        a = make_spec(
            scenario_factory=functools.partial(WithdrawalScenario, origin=1)
        )
        b = make_spec(
            scenario_factory=functools.partial(WithdrawalScenario, origin=1)
        )
        assert a.digest() == b.digest()


class TestPicklability:
    def test_spec_round_trips(self):
        spec = make_spec(
            scenario_factory=functools.partial(WithdrawalScenario, origin=1),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.digest() == spec.digest()

    def test_spec_hashable(self):
        assert len({make_spec(), make_spec(), make_spec(seed=9)}) == 2


class TestExecuteSpec:
    def test_success_record(self):
        record = execute_spec(make_spec())
        assert record.ok
        assert record.measurement.convergence_time > 0
        assert record.digest == make_spec().digest()
        assert record.wall_time > 0
        assert record.worker.startswith("pid-")

    def test_matches_direct_serial_run(self):
        from repro.experiments.common import (
            paper_config,
            run_scenario_once,
            sdn_set_for,
        )

        scenario = WithdrawalScenario()
        topology = scenario.topology(4, clique)
        members = sdn_set_for(topology, 2, scenario.reserved_legacy)
        direct = run_scenario_once(
            scenario, topology, members, paper_config(seed=7, mrai=1.0)
        )
        record = execute_spec(make_spec())
        assert record.measurement.convergence_time == direct.convergence_time
        assert record.measurement.updates_tx == direct.updates_tx

    def test_spans_attached_when_requested(self):
        record = execute_spec(make_spec(spans=True))
        assert record.ok
        assert isinstance(record.spans, list) and record.spans
        # measured results are bit-identical to the span-free run
        plain = execute_spec(make_spec())
        assert (
            record.measurement.convergence_time
            == plain.measurement.convergence_time
        )
        assert record.measurement.updates_tx == plain.measurement.updates_tx

    def test_exception_becomes_failed_record(self):
        record = execute_spec(make_spec(scenario_factory=RaisingScenario))
        assert not record.ok
        assert record.measurement is None
        assert "scenario exploded on purpose" in record.error
