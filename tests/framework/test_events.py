"""Scripted event timelines: announce / withdraw / link / node steps at
offsets, run through the fault engine with one report per step."""

import pytest

from repro.bgp.session import BGPTimers
from repro.faults import FaultInjector, FaultSchedule
from repro.framework.experiment import Experiment, ExperimentConfig
from repro.net.addr import Prefix
from repro.topology.builders import clique, line

#: fresh prefixes for announce steps (every AS already originates its
#: own /24, and schedule announces are idempotent).
EVENT_A = "192.168.0.0/24"
EVENT_B = "192.168.1.0/24"


def experiment(topo=None, mrai=1.0, seed=1):
    return Experiment(
        topo if topo is not None else clique(4),
        config=ExperimentConfig(seed=seed, timers=BGPTimers(mrai=mrai)),
    ).start()


def run(exp, schedule):
    return FaultInjector(exp, schedule).run().reports


class TestScheduleExecution:
    def test_events_fire_at_offsets(self):
        exp = experiment()
        base = exp.now
        schedule = (
            FaultSchedule()
            .announce(1, at=5.0, prefix=EVENT_A)
            .announce(2, at=12.0, prefix=EVENT_B)
        )
        reports = run(exp, schedule)
        assert len(reports) == 2
        assert reports[0].t_fired == pytest.approx(base + 5.0)
        assert reports[1].t_fired == pytest.approx(base + 12.0)

    def test_announce_then_withdraw_by_prefix(self):
        exp = experiment()
        schedule = (
            FaultSchedule()
            .announce(1, at=0.0, prefix=EVENT_A)
            .withdraw(1, at=10.0, prefix=EVENT_A)
        )
        reports = run(exp, schedule)
        assert exp.node(2).loc_rib.get(Prefix.parse(EVENT_A)) is None
        assert reports[1].measurement.updates_tx > 0

    def test_fail_and_restore_timeline(self):
        exp = experiment(topo=line(3))
        schedule = (
            FaultSchedule()
            .link_down(2, 3, at=0.0)
            .link_up(2, 3, at=30.0)
        )
        run(exp, schedule)
        assert exp.reachable(1, 3).reached

    def test_reports_capture_convergence(self):
        exp = experiment()
        (report,) = run(
            exp, FaultSchedule().announce(1, at=0.0, prefix=EVENT_A)
        )
        assert report.measurement.convergence_time >= 0
        assert report.measurement.updates_tx > 0

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule().announce(1, at=-1.0)

    def test_empty_schedule_noop(self):
        exp = experiment()
        assert run(exp, FaultSchedule()) == []

    def test_events_run_in_time_order_regardless_of_declaration(self):
        exp = experiment()
        schedule = (
            FaultSchedule()
            .announce(2, at=10.0, prefix=EVENT_B)
            .announce(1, at=1.0, prefix=EVENT_A)
        )
        reports = run(exp, schedule)
        # index is the declaration position; reports come in firing order
        assert [r.index for r in reports] == [1, 0]

    def test_fail_node_step(self):
        exp = experiment()
        injector = FaultInjector(
            exp, FaultSchedule().router_crash(3, at=0.0, down_for=20.0)
        )
        injector.inject()
        exp.net.sim.run(until=exp.now + 10.0)
        assert not exp.reachable(1, 3).reached
        exp.wait_converged()
        injector.finalize()
        assert exp.reachable(1, 3).reached
