"""What watching a run may cost, and what it may never change.

Every check here is a count or an equality, none a timing.

*The work is done once*: with every observer on, an UPDATE is rendered
once however many records name it, a pooled AS path is stringified once,
and the metrics payload formats a counter key per category, not per
record; with no observer at all, no payload is built in the first place.

An anatomy-on trial builds one provenance DAG, straight from the
tracker's spans, and never reads its own span dicts back.

*Observers stay invisible*: trace capture, metrics, spans and anatomy
together change no measurement, no bus count and no event.  The spans
they produce are pinned in ``golden/spans_clique5_sdn2_seed5.json``: the
file moves only with a deliberate provenance change, and was last
recaptured when an output run that did not send a prefix began dropping
that prefix's pending cause.  The metrics payload of one hybrid trial is
pinned byte for byte in ``golden/metrics_clique6_sdn3_seed5.json``.
"""

import hashlib
import json
import pathlib
from dataclasses import fields

import pytest

from repro.bgp.attrs import AsPath
from repro.bgp.messages import BGPUpdate
from repro.eventsim import InstrumentationBus
from repro.experiments.common import (
    WithdrawalScenario,
    paper_config,
    run_scenario_full,
    sdn_set_for,
)
from repro.framework.convergence import ConvergenceMeasurement
from repro.framework import experiment as experiment_module
from repro.framework.experiment import Experiment
from repro.obs import anatomy as anatomy_module
from repro.obs.dag import ProvenanceDAG
from repro.obs.spans import Span
from repro.runner.jobs import RunSpec, execute_spec, run_trial
from repro.topology.builders import clique

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def experiments(monkeypatch):
    """Every ``Experiment`` constructed during the test, in order — the
    runner entry points build theirs internally and return only results."""
    made = []
    init = Experiment.__init__

    def recording_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Experiment, "__init__", recording_init)
    return made


def withdrawal(n, sdn_count, **config):
    scenario = WithdrawalScenario()
    topology = scenario.topology(n, clique)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    return run_scenario_full(
        scenario, topology, members, paper_config(**config)
    )


class Work:
    """Counting wrappers around the places a payload gets made."""

    def __init__(self, monkeypatch):
        self.thunks = 0  # lazy payloads built
        self.renders = 0  # BGPUpdate.rendered() calls that rendered
        self.path_texts = 0  # AsPath.__str__ calls that built the text
        self.keys = 0  # metric keys formatted
        #: the paths stringified, held so none can die and be re-interned
        #: (a second object for the same value would honestly count twice).
        self.paths = []
        work = self
        rendered, path_str = BGPUpdate.rendered, AsPath.__str__
        snapshot = experiment_module.records_snapshot
        record_lazy = InstrumentationBus.record_lazy

        def counting_rendered(update):
            if not hasattr(update, "_rendered"):
                work.renders += 1
            return rendered(update)

        def counting_str(path):
            if not hasattr(path, "_text"):
                work.path_texts += 1
                work.paths.append(path)
            return path_str(path)

        def counting_snapshot(counts):
            work.keys += len(counts)  # one counter key per category
            return snapshot(counts)

        def counting_record_lazy(bus, category, node, thunk):
            def counted():
                work.thunks += 1
                return thunk()

            record_lazy(bus, category, node, counted)

        monkeypatch.setattr(BGPUpdate, "rendered", counting_rendered)
        monkeypatch.setattr(AsPath, "__str__", counting_str)
        monkeypatch.setattr(
            experiment_module, "records_snapshot", counting_snapshot
        )
        monkeypatch.setattr(
            InstrumentationBus, "record_lazy", counting_record_lazy
        )


class TestWorkIsDoneOnce:
    def test_observed_trial_renders_each_update_and_path_once(
        self, monkeypatch, experiments
    ):
        work = Work(monkeypatch)
        withdrawal(
            6, 2, seed=5, trace_level="full", metrics=True, spans=True
        )
        bus = experiments[-1].net.bus
        sent = bus.counts["bgp.update.tx"]
        assert bus.counts["bgp.update.rx"] > 0
        # tx and rx records of one UPDATE share its one rendering.
        assert 0 < work.renders <= sent
        assert 0 < work.path_texts == len({path.asns for path in work.paths})
        # One key per category for the record counters — against
        # hundreds of records.
        records = sum(bus.counts.values())
        assert records > work.thunks > 500
        assert work.keys == len(bus.counts) < records // 10

    def test_unobserved_trial_builds_no_payload(self, monkeypatch, experiments):
        work = Work(monkeypatch)
        withdrawal(6, 2, seed=5, trace_level="off")
        exp = experiments[-1]
        assert exp.net.bus.counts["bgp.update.tx"] > 0
        assert exp.net.bus.counts["collector.update"] > 0
        # Not even the route collector writes a path out: what it hears
        # is on the record stream, and nobody took a record here.
        assert (work.thunks, work.renders, work.path_texts) == (0, 0, 0)

    def test_observed_trial_derives_anatomy_from_the_live_spans(
        self, monkeypatch
    ):
        calls = {"from_dict": 0, "dag": 0, "ensure": 0}
        from_dict, init = Span.from_dict, ProvenanceDAG.__init__
        ensure = anatomy_module.ensure_record_anatomy

        def counting_from_dict(payload):
            calls["from_dict"] += 1
            return from_dict(payload)

        def counting_init(dag, *args, **kwargs):
            calls["dag"] += 1
            init(dag, *args, **kwargs)

        def counting_ensure(*args, **kwargs):
            calls["ensure"] += 1
            return ensure(*args, **kwargs)

        monkeypatch.setattr(
            Span, "from_dict", staticmethod(counting_from_dict)
        )
        monkeypatch.setattr(ProvenanceDAG, "__init__", counting_init)
        monkeypatch.setattr(
            anatomy_module, "ensure_record_anatomy", counting_ensure
        )
        record = execute_spec(RunSpec(
            scenario_factory=WithdrawalScenario, topology_factory=clique,
            n=6, sdn_count=3, seed=5, mrai=2.0, trace_level="full",
            metrics=True, spans=True, anatomy=True,
        ))
        assert record.ok and record.anatomy is not None
        # The snapshot dicts are the record's payload; the DAG is built
        # once, from the tracker's spans, never from the dicts.
        assert calls == {"from_dict": 0, "dag": 1, "ensure": 1}


def comparable(measurement):
    """Every field of a measurement; ``extra`` less the one note the span
    tracker leaves there (the id of the event's root span)."""
    out = {
        f.name: getattr(measurement, f.name)
        for f in fields(ConvergenceMeasurement)
    }
    out["extra"] = {
        k: v for k, v in out["extra"].items() if k != "event_root_span"
    }
    return out


class TestObserversStayInvisible:
    @pytest.mark.parametrize("sdn_count", range(8))
    def test_every_fraction_measures_the_same(self, sdn_count, experiments):
        """n = 8 has eight SDN counts (the origin stays legacy); the
        nine Fig. 2 fractions of the 16-AS clique map onto all of them."""
        spec = dict(
            scenario_factory=WithdrawalScenario, topology_factory=clique,
            n=8, sdn_count=sdn_count, seed=4200 + sdn_count, mrai=30.0,
        )
        record = execute_spec(RunSpec(
            trace_level="full", metrics=True, spans=True, anatomy=True,
            **spec,
        ))
        bare = run_trial(RunSpec(trace_level="off", **spec))
        observed_exp, bare_exp = experiments
        assert record.ok and record.anatomy is not None
        assert comparable(record.measurement) == comparable(bare)
        assert observed_exp.net.bus.counts == bare_exp.net.bus.counts
        assert (
            observed_exp.net.sim.events_processed
            == bare_exp.net.sim.events_processed
        )
        # The payload carries the bus's count of every category.
        counters = record.metrics["counters"]
        for category, count in observed_exp.net.bus.counts.items():
            assert counters[f"records_total{{category={category}}}"] == count

    def test_metrics_payload_equals_the_parent_commits(self):
        record = execute_spec(RunSpec(
            scenario_factory=WithdrawalScenario, topology_factory=clique,
            n=6, sdn_count=3, seed=5, mrai=2.0, metrics=True,
        ))
        golden = (GOLDEN / "metrics_clique6_sdn3_seed5.json").read_bytes()
        assert (json.dumps(record.metrics) + "\n").encode() == golden

    def test_spans_equal_the_parent_commits(self):
        _, _, spans = withdrawal(5, 2, seed=5, spans=True)
        golden = json.loads(
            (GOLDEN / "spans_clique5_sdn2_seed5.json").read_text()
        )
        assert span_fixture(spans) == golden
        # The ids the golden's hashes leave out: every UPDATE sent is a
        # tx span, numbered from 1 in sending order within the trial,
        # and every rx span names one of them.
        ids = {"bgp.update.tx": [], "bgp.update.rx": []}
        for span in spans:
            if span["category"] in ids:
                ids[span["category"]].append(span["data"]["update_id"])
        sent, received = ids["bgp.update.tx"], ids["bgp.update.rx"]
        assert sent == list(range(1, len(sent) + 1))
        assert received and set(received) <= set(sent)


def span_fixture(spans):
    """A span payload as the golden file stores it: one row of
    ``[span_id, parent_id, cause_id, category, node, t_start, t_end]`` per
    span, and per category the SHA-256 of its spans' ``data`` after a JSON
    round trip.  ``update_id`` is left out of the hashes: the file was
    captured while UPDATEs were numbered process-wide, and the test
    pins the per-trial ids beside it."""
    rows, data = [], {}
    for span in spans:
        rows.append([
            span["span_id"], span["parent_id"], span["cause_id"],
            span["category"], span["node"], span["t_start"], span["t_end"],
        ])
        data.setdefault(span["category"], []).append(
            {k: v for k, v in span["data"].items() if k != "update_id"}
        )
    return {
        "rows": rows,
        "data_sha256": {
            category: hashlib.sha256(
                json.dumps(payloads, sort_keys=True).encode()
            ).hexdigest()
            for category, payloads in sorted(data.items())
        },
    }
