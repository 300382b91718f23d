"""A finished trial leaves nothing for the collector: ``Experiment.close()``
cuts the trial's one reference cycle, so refcounting frees all of it,
and ``build()`` + ``start()`` make no cyclic garbage of their own —
which is what makes holding every generation from build to close safe
(docs/scaling.md, "Set-up cost"), and a measured event on a long-lived
experiment makes none either.  Nor does a trial take a trace: nothing
it returns carries one."""

import dataclasses
import gc
import weakref

import pytest

from repro.cli import Output, build_parser
from repro.experiments.common import paper_config
from repro.experiments.flapstorm import run_flap_storm
from repro.experiments.subcluster import run_subcluster_experiment
from repro.faults.invariants import (
    InvariantChecker,
    InvariantError,
    InvariantViolation,
)
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment
from repro.runner.jobs import run_trial_full
from repro.topology.caida import caida_hierarchy
from tests.framework.trial_families import FAMILIES, family_spec

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
    return family_spec(family, **OBSERVERS[observers])


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


@pytest.fixture
def closing(monkeypatch):
    """What every experiment held as it closed: its bus's subscription
    names."""
    seen = []
    close = Experiment.close

    def tracked(self):
        if self.net is not None:
            seen.append([s.name for s in self.net.bus.subscriptions])
        close(self)

    monkeypatch.setattr(Experiment, "close", tracked)
    return seen


@pytest.mark.parametrize("observers", sorted(OBSERVERS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_batch_trial_retains_no_trace(family, observers, closing):
    """No network retains a trace, at any ``trace_level`` ("on" asks
    for the full trace): only the span tracker subscribes."""
    run_dropping_outputs(spec(family, observers))
    spans = ["spans"] if observers == "on" else []
    assert closing == [spans]


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


def test_storm_phases_make_no_cyclic_garbage(collector_off):
    """What lets ``measure_event`` hold the collector on a long-lived
    experiment: announce and withdraw phases on a 300-AS hierarchy, as
    the storm benchmark runs them, leave nothing for it."""
    config = paper_config(
        seed=1, policy_mode="gao_rexford", trace_level="off", lean=True,
    )
    exp = Experiment(caida_hierarchy(300), config=config).build().start()
    gc.collect()
    for _ in range(2):
        announced = []
        measurement = measure_event(
            exp, lambda: announced.append(exp.announce(1))
        )
        assert measurement.updates_rx > 0
        assert gc.collect() == 0
        measurement = measure_event(
            exp, lambda: exp.withdraw(1, announced[0])
        )
        assert measurement.updates_rx > 0
        assert gc.collect() == 0
    exp.close()


def test_the_scale_trial_retains_no_trace(closing):
    """``scale._measure_trial`` takes no trace either, asked for the
    full one."""
    from repro.experiments.scale import _measure_trial, scale_spec

    _measure_trial(dataclasses.replace(scale_spec(60), trace_level="full"))
    assert closing == [[]]


def test_the_scale_trial_runs_no_automatic_collection(monkeypatch):
    """``scale._measure_trial`` holds every generation from build to
    close, as every ``run_scenario_full`` trial does: its
    ``scenario.prepare`` (announce, then settle) runs outside the holds
    ``build()``, ``start()`` and ``measure_event`` take of their own."""
    from repro.experiments.common import WithdrawalScenario
    from repro.experiments.scale import _measure_trial, scale_spec

    thresholds = []
    prepare = WithdrawalScenario.prepare

    def recording(self, exp):
        thresholds.append(gc.get_threshold()[0])
        prepare(self, exp)

    monkeypatch.setattr(WithdrawalScenario, "prepare", recording)
    assert gc.isenabled() and gc.get_threshold()[0] > 0
    _measure_trial(scale_spec(60))
    assert thresholds == [0]
    assert gc.get_threshold()[0] > 0


def faults_run():
    """``repro faults run``, parsed first: argparse's parser is cyclic
    garbage of its own, collected before any trial is built."""
    args = build_parser().parse_args(
        ["faults", "run", "--n", "6", "--fractions", "0,1"]
    )
    args.out = Output(quiet=True)
    gc.collect()
    assert args.func(args) == 0


@pytest.mark.parametrize("command", [
    faults_run,
    lambda: run_flap_storm(n=6, sdn_count=2, flaps=3),
    run_subcluster_experiment,
], ids=["faults-run", "flapstorm", "subcluster"])
def test_every_measured_command_frees_its_trials(
    command, collector_off, built, capsys
):
    """The commands that build their experiments through
    ``run_scenario_full`` close every one of them."""
    command()
    assert built and [ref() for ref in built] == [None] * len(built)
    assert gc.collect() == 0
