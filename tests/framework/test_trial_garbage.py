"""A finished trial leaves nothing for the collector: ``Experiment.close()``
cuts the trial's one reference cycle, so refcounting frees all of it,
and ``build()`` + ``start()`` make no cyclic garbage of their own —
which is what makes holding every generation from build to close safe
(docs/scaling.md, "Set-up cost")."""

import functools
import gc
import weakref

import pytest

from repro.experiments.announcement import AnnouncementScenario
from repro.experiments.common import paper_config
from repro.experiments.failover import FailoverScenario
from repro.experiments.scenarios import fault_suite_scenario
from repro.experiments.withdrawal import WithdrawalScenario
from repro.faults.invariants import (
    InvariantChecker,
    InvariantError,
    InvariantViolation,
)
from repro.faults.scenarios import canned_names
from repro.framework.experiment import Experiment
from repro.runner.jobs import RunSpec, run_trial_full
from repro.topology.builders import clique
from repro.topology.caida import caida_hierarchy

FAMILIES = {
    "withdrawal": (WithdrawalScenario, 6),
    "failover": (FailoverScenario, 6),
    "announcement": (AnnouncementScenario, 6),
    **{
        suite: (functools.partial(fault_suite_scenario, suite=suite), 8)
        for suite in canned_names()
    },
}
OBSERVERS = {
    "off": dict(trace_level="off"),
    "on": dict(trace_level="full", metrics=True, spans=True),
}


@pytest.fixture
def collector_off():
    """The collector disabled for the test, with nothing of earlier
    tests' left in it."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def built(monkeypatch):
    """Weak references to every experiment built, and its simulator."""
    refs = []
    build = Experiment.build

    def tracked(self):
        out = build(self)
        refs.extend((weakref.ref(self), weakref.ref(self.net.sim)))
        return out

    monkeypatch.setattr(Experiment, "build", tracked)
    return refs


def spec(family, observers):
    factory, n = FAMILIES[family]
    return RunSpec(
        scenario_factory=factory, topology_factory=clique, n=n,
        sdn_count=n // 2, seed=3, mrai=1.0,
        **OBSERVERS[observers],
    )


def run_dropping_outputs(spec, **info):
    """One trial whose outputs are dropped before this returns."""
    measurement, _, _ = run_trial_full(spec, info=info)
    assert measurement.convergence_time >= 0


@pytest.mark.parametrize("observers", sorted(OBSERVERS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_finished_trial_frees_itself(family, observers, collector_off, built):
    run_dropping_outputs(spec(family, observers))
    assert len(built) == 2
    assert [ref() for ref in built] == [None, None]
    assert gc.collect() == 0


def test_outputs_hold_no_device(collector_off, built):
    """What a trial hands back (measurement, metrics, span dicts, the
    live span list, the layer split) keeps none of the trial alive."""
    info = {}
    outputs = run_trial_full(spec("withdrawal", "on"), info=info)
    assert info["live_spans"] and outputs[2]
    assert [ref() for ref in built] == [None, None]
    assert gc.collect() == 0


def test_a_failing_trial_frees_itself(monkeypatch, collector_off, built):
    violation = InvariantViolation(0.0, "forced", "AS1", "made to fail")
    monkeypatch.setattr(InvariantChecker, "check", lambda self: [violation])
    with pytest.raises(InvariantError):
        run_dropping_outputs(spec("gateway-outage", "on"))
    assert [ref() for ref in built] == [None, None]
    assert gc.collect() == 0


def test_close_is_idempotent_and_frees_a_hand_built_experiment(collector_off):
    config = paper_config(seed=1, metrics=True, spans=True)
    exp = Experiment(caida_hierarchy(40), config=config).start()
    refs = [weakref.ref(exp), weakref.ref(exp.net.sim)]
    snapshot = exp.metrics_snapshot()
    exp.close()
    exp.close()
    assert exp.metrics_snapshot() == snapshot
    del exp
    assert [ref() for ref in refs] == [None, None]
    assert gc.collect() == 0


def test_close_before_build_is_a_no_op():
    Experiment(caida_hierarchy(10)).close()


def test_build_and_start_make_no_cyclic_garbage(collector_off):
    """Every young collection the hold keeps back would have found
    nothing: a 300-AS hierarchy builds and converges without garbage."""
    config = paper_config(
        seed=1, policy_mode="gao_rexford", trace_level="off", lean=True,
    )
    exp = Experiment(caida_hierarchy(300), config=config).build().start()
    assert gc.collect() == 0
    assert len(exp.as_nodes()) == 300
