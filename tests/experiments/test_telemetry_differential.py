"""Differential oracle: the telemetry plane is invisible to results.

Structured logging, resource accounting and the per-layer wall-time
reading are only admissible because they change *nothing observable*
in the science: these tests run the paper's experiments with every
telemetry knob on (``REPRO_LOG`` set, metrics captured, the layer
reading's dispatch hook installed) and fully off, and compare with
exact equality — every measurement field and the full trace digest.
The spec digests of the pre-telemetry construction are pinned so no
telemetry field can leak into cache keys of existing sweeps.
"""

from dataclasses import fields

import pytest

from repro.experiments.common import (
    FailoverScenario,
    WithdrawalScenario,
    paper_config,
    sdn_set_for,
)
from repro.framework.convergence import ConvergenceMeasurement, measure_event
from repro.framework.experiment import Experiment
from repro.eventsim import RecordDigest, time_by_layer
from repro.obs.logging import LOG_ENV, get_logger
from repro.obs import logging as obslog
from repro.runner.jobs import RunSpec, execute_spec
from repro.topology.builders import clique

# Digests of specs built before the telemetry plane existed.  They are
# content hashes of the spec's describe() payload: if a telemetry
# field (or its deletion) changed them, every cached trial and
# registry row in the wild would silently orphan.
LEGACY_WITHDRAWAL_DIGEST = (
    "8ed4a262aeeac6077f051855eecc3e9cc070a8c41e4a46c909a1f301492d10f6"
)
LEGACY_FAILOVER_DIGEST = (
    "03d16fe36e5b802e01885d4d5ffaab6708da19bda04e38d5e30061e9e1af1b28"
)


def _run_scenario(scenario, *, n, sdn_count, seed, mrai, metrics):
    """One full scenario run, keeping the live experiment, with the
    digest of its whole record stream.  With ``metrics`` the layer reading is installed
    where ``run_scenario_full`` installs it."""
    topology = scenario.topology(n, clique)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    config = paper_config(seed=seed, mrai=mrai, metrics=metrics)
    exp = Experiment(
        topology, sdn_members=members, config=config, name=scenario.name
    ).build()
    digest = RecordDigest(exp.net.bus)
    if metrics:
        exp.walls = time_by_layer(exp.net.sim)
    scenario.configure(exp)
    exp.start()
    scenario.prepare(exp)
    measurement = measure_event(exp, lambda: scenario.event(exp))
    scenario.finish(exp)
    return exp, measurement, digest.hexdigest()


def _reset_logging():
    obslog._configured = False
    obslog._root = None


@pytest.mark.parametrize(
    "scenario_cls", [WithdrawalScenario, FailoverScenario],
    ids=["withdrawal", "failover"],
)
def test_measurement_and_trace_identical_telemetry_on_vs_off(
    scenario_cls, tmp_path, monkeypatch
):
    # off: no structured log sink, no metrics capture, no layer reading
    monkeypatch.delenv(LOG_ENV, raising=False)
    _reset_logging()
    _, off_m, off_digest = _run_scenario(
        scenario_cls(), n=8, sdn_count=3, seed=42, mrai=2.0, metrics=False
    )

    # on: logging to a file, the metrics registry recording every
    # event, and the layer reading timing every dispatch
    monkeypatch.setenv(LOG_ENV, str(tmp_path / "repro.log"))
    _reset_logging()
    logger = get_logger("differential")
    try:
        logger.info("run_started", scenario=scenario_cls.__name__)
        on_exp, on_m, on_digest = _run_scenario(
            scenario_cls(), n=8, sdn_count=3, seed=42, mrai=2.0, metrics=True
        )
        logger.info("run_finished")
    finally:
        _reset_logging()

    assert on_exp.walls, "the layer reading timed no event"
    for f in fields(ConvergenceMeasurement):
        assert getattr(on_m, f.name) == getattr(off_m, f.name), f.name
    assert on_digest == off_digest


def test_legacy_spec_digests_pinned():
    s1 = RunSpec(
        scenario_factory=WithdrawalScenario,
        topology_factory=clique,
        n=8,
        sdn_count=3,
        seed=7,
        mrai=2.0,
    )
    assert s1.digest() == LEGACY_WITHDRAWAL_DIGEST
    s2 = RunSpec(
        scenario_factory=FailoverScenario,
        topology_factory=clique,
        n=8,
        sdn_count=2,
        seed=11,
        mrai=1.0,
        trace_level="route",
        metrics=True,
    )
    assert s2.digest() == LEGACY_FAILOVER_DIGEST


@pytest.mark.parametrize(
    "scenario_cls", [WithdrawalScenario, FailoverScenario],
    ids=["withdrawal", "failover"],
)
def test_worker_results_identical_with_layer_reading_and_logging(
    scenario_cls, tmp_path, monkeypatch
):
    # Through the full worker stack: execute_spec with telemetry off
    # and fully on, compare the result payloads a cache or registry
    # would persist.  ``metrics`` earns its own digest (its record
    # carries a snapshot), but the measurement may not move.
    def spec(**overrides):
        base = dict(
            scenario_factory=scenario_cls,
            topology_factory=clique,
            n=6,
            sdn_count=2,
            seed=5,
            mrai=1.0,
        )
        base.update(overrides)
        return RunSpec(**base)

    monkeypatch.delenv(LOG_ENV, raising=False)
    _reset_logging()
    off = execute_spec(spec())
    assert off.ok, off.error

    monkeypatch.setenv(LOG_ENV, str(tmp_path / "repro.log"))
    _reset_logging()
    try:
        on = execute_spec(spec(metrics=True), cid="cafe0123dead")
    finally:
        _reset_logging()
    assert on.ok, on.error

    assert on.measurement_dict() == off.measurement_dict()
    assert on.resources["wall_by_layer_s"]
    assert "wall_by_layer_s" not in off.resources
    assert spec().digest() == off.digest
