"""The tracer's own arithmetic, on toy classes (no emulator needed)."""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from tracer import RESIDUAL, Tracer, layer_of_module  # noqa: E402


class Slotted:
    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def inner(self):
        self.calls += 1
        time.sleep(0.002)

    def outer(self):
        time.sleep(0.001)
        self.inner()
        self.inner()


def test_self_time_excludes_children_and_the_trial_ledger_closes():
    tracer = Tracer()
    tracer.wrap(Slotted, "inner", "child")
    tracer.wrap(Slotted, "outer", "parent", span=True)
    try:
        thing = Slotted()  # built after wrapping, as the benchmark does
        with tracer.trial("t0"):
            time.sleep(0.001)
            thing.outer()
    finally:
        tracer.uninstall()
    assert thing.calls == 2
    assert tracer.calls("child") == 2 and tracer.calls("parent") == 1
    assert tracer.self_s("child") >= 0.004
    assert 0.001 <= tracer.self_s("parent") < 0.004
    (row,) = tracer.trials
    assert row["trial"] == "t0"
    assert set(row["layers"]) == {"child", "parent", RESIDUAL}
    assert abs(sum(row["layers"].values()) - row["wall_s"]) < 0.01 * row["wall_s"]
    outer_span = next(s for s in tracer.spans if s["name"] == "Slotted.outer")
    trial_span = next(s for s in tracer.spans if s["name"] == "trial")
    assert outer_span["parent"] == trial_span["span"]
    assert outer_span["trial"] == "t0"
    assert "outer" in Slotted.__dict__ and not hasattr(
        Slotted.__dict__["outer"], "__wrapped__")


def test_install_and_uninstall_put_every_original_back(tmp_path):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[3] / "src"))
    from repro.eventsim.bus import InstrumentationBus
    from repro.eventsim.core import Simulator
    from repro.net.link import Link

    before = (Simulator.step, Simulator.__init__, Link.transmit,
              InstrumentationBus.record_lazy, InstrumentationBus.subscribe)
    with Tracer() as tracer:
        assert Simulator.step is not before[0]
        sim = Simulator(seed=1)
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with tracer.trial("kernel"):
            sim.run()
        assert fired == [1.0]
        assert tracer.calls("eventsim") == 1
    after = (Simulator.step, Simulator.__init__, Link.transmit,
             InstrumentationBus.record_lazy, InstrumentationBus.subscribe)
    assert after == before
    tracer.dump(tmp_path / "spans.jsonl")
    kinds = [line.split('"kind": "')[1].split('"')[0]
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert kinds.count("trial") == 1 and "span" in kinds


def test_layers_follow_the_module_tree():
    assert layer_of_module("repro.eventsim.bus") == "eventsim.bus"
    assert layer_of_module("repro.eventsim.core") == "eventsim"
    assert layer_of_module("repro.bgp.session") == "bgp"
    assert layer_of_module("repro.controller.idr") == "controller"
    assert layer_of_module("json") == "other"
