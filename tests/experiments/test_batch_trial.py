"""A batch trial's results do not depend on whether it takes a trace,
and its span payloads are JSON-shaped as published.

No network retains a trace, so ``RunSpec.trace_level`` only moves the
digest.  The differential below runs every trial family again with a
list subscribed to every record from the build on, so every lazy
payload is built: nothing a trial returns may move.
Spans are snapshotted without a conversion pass, so every publisher
must build its payload in JSON shape (lists, never tuples); the round
trip below is that check, over every trial family at k = 0 and k > 0.
UPDATEs are numbered per trial, so a trial's spans, ``update_id``
included, do not depend on what the process ran before it.
"""

import json

import pytest

from repro.framework.experiment import Experiment
from repro.runner.jobs import execute_spec
from tests.framework.trial_families import FAMILIES, family_spec

CASES = [
    (family, k)
    for family, (_, n) in sorted(FAMILIES.items())
    for k in (0, n // 2)
]


def taking_the_trace(build):
    """``Experiment.build`` followed by a list's subscription to every
    record the run publishes."""

    def built(self):
        out = build(self)
        self.net.bus.subscribe([].append)
        return out

    return built


@pytest.fixture(scope="module")
def observed():
    """``observed(family, sdn_count, traced)``: the trial's record at
    ``trace_level="full"`` with every payload on, run once per module;
    ``traced`` takes every record of the run as well."""
    records = {}

    def record_of(family, sdn_count, traced=False):
        key = (family, sdn_count, traced)
        if key not in records:
            spec = family_spec(
                family, sdn_count, trace_level="full",
                metrics=True, spans=True, anatomy=True,
            )
            with pytest.MonkeyPatch.context() as patch:
                if traced:
                    patch.setattr(
                        Experiment, "build", taking_the_trace(Experiment.build)
                    )
                records[key] = execute_spec(spec)
            assert records[key].ok, records[key].error
        return records[key]

    yield record_of
    records.clear()


@pytest.mark.parametrize("family,sdn_count", CASES)
def test_taking_the_trace_changes_no_result(observed, family, sdn_count):
    batch = observed(family, sdn_count)
    traced = observed(family, sdn_count, traced=True)
    assert batch.measurement_dict() == traced.measurement_dict()
    assert batch.metrics == traced.metrics
    assert batch.spans == traced.spans
    assert batch.anatomy == traced.anatomy


@pytest.mark.parametrize("family,sdn_count", CASES)
def test_published_span_payloads_are_json_shaped(
    observed, family, sdn_count
):
    spans = observed(family, sdn_count).spans
    assert spans
    assert json.loads(json.dumps(spans)) == spans


def test_spans_do_not_depend_on_the_trials_run_before():
    """The same spec twice in one process, an unrelated trial between
    the two runs: equal spans, ``update_id`` included, numbered from 1."""
    spec = family_spec("withdrawal", spans=True)
    first = execute_spec(spec)
    between = execute_spec(family_spec("failover", 2, spans=True))
    again = execute_spec(spec)
    assert first.ok and between.ok and again.ok
    assert first.spans == again.spans
    sent = [
        span["data"]["update_id"] for span in first.spans
        if span["category"] == "bgp.update.tx"
    ]
    assert sent == list(range(1, len(sent) + 1))
