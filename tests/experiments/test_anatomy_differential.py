"""Differential oracle: convergence anatomy is invisible to results.

Anatomy is pure post-processing of the span pile, so turning it on may
change *nothing observable* in the science: these tests run the paper's
experiments with attribution fully on and fully off and compare with
exact equality — every measurement field, the full trace digest, and
(deliberately) the spec digest itself.  The shared digest is the design
point: an anatomy-on run and an anatomy-off run of the same trial are
the same cache entry and the same registry lineage, with the
attribution re-derivable losslessly from the stored spans.

The worker derives anatomy from the tracker's live spans; cache hits
and registry writes re-derive it from the stored span dicts.  The two
derivations must agree byte for byte.
"""

import json
from dataclasses import fields

import pytest

from repro.eventsim import RecordDigest
from repro.experiments.common import (
    AnnouncementScenario,
    FailoverScenario,
    WithdrawalScenario,
    paper_config,
    sdn_set_for,
)
from repro.experiments.scenarios import fault_suite_scenario
from repro.framework.convergence import ConvergenceMeasurement, measure_event
from repro.framework.experiment import Experiment
from repro.obs.anatomy import (
    anatomy_payload,
    check_anatomy,
    ensure_record_anatomy,
)
from repro.runner.jobs import RunSpec, execute_spec
from repro.topology.builders import clique


def _run_scenario(scenario, *, n, sdn_count, seed, mrai):
    topology = scenario.topology(n, clique)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    config = paper_config(seed=seed, mrai=mrai, spans=True)
    exp = Experiment(
        topology, sdn_members=members, config=config, name=scenario.name
    ).build()
    digest = RecordDigest(exp.net.bus)
    scenario.configure(exp)
    exp.start()
    scenario.prepare(exp)
    measurement = measure_event(exp, lambda: scenario.event(exp))
    scenario.finish(exp)
    return exp, measurement, digest.hexdigest()


@pytest.mark.parametrize(
    "scenario_cls", [WithdrawalScenario, FailoverScenario],
    ids=["withdrawal", "failover"],
)
def test_measurement_and_trace_identical_anatomy_on_vs_off(scenario_cls):
    _, off_m, off_digest = _run_scenario(
        scenario_cls(), n=8, sdn_count=3, seed=42, mrai=2.0
    )
    on_exp, on_m, on_digest = _run_scenario(
        scenario_cls(), n=8, sdn_count=3, seed=42, mrai=2.0
    )
    # derive the anatomy mid-flight, before comparing: the attribution
    # walk may not disturb the experiment it explains
    from repro.analysis.report import anatomy_of_spans

    anatomy = anatomy_of_spans(on_exp.spans_snapshot())
    assert check_anatomy(
        anatomy.to_dict(), t_converged=on_m.t_converged
    ) == []

    for f in fields(ConvergenceMeasurement):
        assert getattr(on_m, f.name) == getattr(off_m, f.name), f.name
    assert on_digest == off_digest


@pytest.mark.parametrize(
    "scenario_cls", [WithdrawalScenario, FailoverScenario],
    ids=["withdrawal", "failover"],
)
def test_worker_results_identical_anatomy_on_vs_off(scenario_cls):
    # Through the full worker stack: execute_spec with anatomy off and
    # on; everything a cache or registry would persist must match,
    # except the anatomy payload itself.
    def spec(**overrides):
        base = dict(
            scenario_factory=scenario_cls,
            topology_factory=clique,
            n=6,
            sdn_count=2,
            seed=5,
            mrai=1.0,
            spans=True,
        )
        base.update(overrides)
        return RunSpec(**base)

    off = execute_spec(spec())
    assert off.ok, off.error
    on = execute_spec(spec(anatomy=True))
    assert on.ok, on.error

    assert on.measurement_dict() == off.measurement_dict()
    assert on.spans == off.spans
    # anatomy shares the spec digest: it is NOT a new cache identity
    assert spec(anatomy=True).digest() == spec().digest()
    assert on.digest == off.digest

    assert off.anatomy is None
    assert on.anatomy is not None
    assert check_anatomy(
        on.anatomy, t_converged=on.measurement.t_converged
    ) == []

    # an off record re-derives the identical payload losslessly — the
    # cache-hit upgrade path in ParallelRunner.run
    ensure_record_anatomy(off)
    assert off.anatomy == on.anatomy


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


#: withdrawal, failover and announcement at sdn 0, mid and n-1 of the
#: 6-AS clique, plus one canned fault suite.
DERIVATION_CASES = [
    pytest.param(factory, sdn_count, id=f"{name}-sdn{sdn_count}")
    for name, factory in (
        ("withdrawal", WithdrawalScenario),
        ("failover", FailoverScenario),
        ("announcement", AnnouncementScenario),
    )
    for sdn_count in (0, 3, 5)
] + [pytest.param(fault_suite_scenario, 2, id="gateway-outage-sdn2")]


@pytest.mark.parametrize("scenario_factory, sdn_count", DERIVATION_CASES)
def test_live_derived_anatomy_equals_the_stored_spans_derivation(
    scenario_factory, sdn_count
):
    def spec(**overrides):
        return RunSpec(
            scenario_factory=scenario_factory, topology_factory=clique,
            n=6, sdn_count=sdn_count, seed=11 + sdn_count, mrai=1.0,
            spans=True, **overrides,
        )

    on = execute_spec(spec(anatomy=True))
    assert on.ok, on.error
    assert on.anatomy is not None
    root = on.measurement.extra["event_root_span"]
    stored = anatomy_payload(on.spans, root)
    assert _canonical(on.anatomy) == _canonical(stored)

    # the anatomy-off twin, upgraded the way a cache hit is
    off = execute_spec(spec())
    assert off.ok, off.error
    assert off.anatomy is None
    ensure_record_anatomy(off)
    assert _canonical(off.anatomy) == _canonical(on.anatomy)
