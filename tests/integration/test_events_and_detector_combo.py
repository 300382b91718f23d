"""Integration: scripted timelines + loss measurement working together
— the full monitoring workflow of the paper's demo."""

from repro.bgp.session import BGPTimers
from repro.controller.idr import ControllerConfig
from repro.faults import FaultInjector, FaultSchedule
from repro.framework import Experiment, ExperimentConfig, ProbeStream
from repro.topology.builders import clique


def build(sdn=(), seed=1, mrai=2.0):
    config = ExperimentConfig(
        seed=seed,
        timers=BGPTimers(mrai=mrai),
        controller=ControllerConfig(recompute_delay=0.2),
    )
    return Experiment(clique(6), sdn_members=set(sdn), config=config).start()


class TestDemoWorkflow:
    def test_stream_survives_scripted_failures(self):
        """The demo: a video-like stream while the topology is scripted."""
        exp = build(sdn=(5, 6))
        sender = exp.add_host(2)
        receiver = exp.add_host(1)
        exp.wait_converged()
        stream = ProbeStream(sender, receiver, interval=0.05)
        stream.start()
        FaultInjector(
            exp,
            FaultSchedule()
            .link_down(1, 2, at=2.0)
            .link_down(1, 3, at=10.0)
            .link_up(1, 2, at=20.0),
        ).run()
        exp.net.sim.run(until=exp.now + 3.0)
        stream.stop()
        report = stream.report()
        # the stream recovered after each event: overall loss is small
        assert report.sent > 300
        assert report.loss_rate < 0.1
        # and the last probes made it through
        last_seq = max(stream.sent)
        received_seqs = {p.seq for p in receiver.probes_received}
        assert any(s in received_seqs for s in range(last_seq - 5, last_seq + 1))

    def test_per_event_reports_are_isolated(self):
        exp = build()
        result = FaultInjector(
            exp,
            FaultSchedule()
            .announce(1, at=0.0, prefix="192.168.0.0/24")
            .announce(2, at=60.0, prefix="192.168.1.0/24"),
        ).run()
        # similar events should produce similar update counts — the
        # second report must not accumulate the first's activity
        first, second = (report.measurement for report in result.reports)
        assert 0 < second.updates_tx <= 2 * first.updates_tx
