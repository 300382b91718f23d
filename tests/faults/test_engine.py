"""Engine tests: determinism, fault semantics, windows, strictness."""

import pytest

from repro.experiments.common import paper_config, sdn_set_for
from repro.faults import (
    FaultError,
    FaultInjector,
    FaultSchedule,
    InvariantChecker,
    InvariantError,
    canned_schedule,
)
from repro.eventsim import RecordDigest
from repro.framework.experiment import Experiment
from repro.topology.builders import clique

from .test_invariants import force_longer_path


def build_exp(
    n=6,
    sdn_count=0,
    seed=1,
    mrai=2.0,
    reserved=frozenset({1, 2}),
    origins=(1, 2),
    trace_level="full",
    digest=None,
):
    """A converged clique with per-AS prefixes announced; a ``digest``
    list gets the :class:`RecordDigest` of the whole run."""
    topo = clique(n)
    members = sdn_set_for(topo, sdn_count, reserved)
    exp = Experiment(
        topo, sdn_members=members,
        config=paper_config(seed=seed, mrai=mrai, trace_level=trace_level),
    ).build()
    if digest is not None:
        digest.append(RecordDigest(exp.net.bus))
    exp.start()
    for asn in origins:
        exp.announce(asn, exp.as_prefix(asn))
    exp.wait_converged()
    return exp


def run_schedule(schedule, **kwargs):
    exp = build_exp(**kwargs)
    result = FaultInjector(exp, schedule).run()
    return exp, result


def run_digest(schedule, **kwargs):
    """A scenario's result and the digest of its whole run."""
    digest = []
    injector = FaultInjector(build_exp(digest=digest, **kwargs), schedule)
    return injector.run(), digest[0].hexdigest()


class TestDeterminism:
    def test_same_inputs_identical_trace(self):
        schedule = canned_schedule("gateway-flap", fault_seed=3)
        first, first_digest = run_digest(schedule, sdn_count=2)
        second, second_digest = run_digest(schedule, sdn_count=2)
        assert first_digest == second_digest
        assert first.convergence_times() == second.convergence_times()

    def test_different_fault_seed_changes_jitter(self):
        _, a = run_digest(canned_schedule("gateway-flap", fault_seed=1))
        _, b = run_digest(canned_schedule("gateway-flap", fault_seed=2))
        assert a != b

    def test_digest_works_without_trace_capture(self):
        """The digest folds the record stream, which no trace level
        changes: "off" digests the run that "full" does."""
        schedule = FaultSchedule().link_down(1, 2, at=1.0)
        _, with_trace = run_digest(schedule, trace_level="full")
        _, without = run_digest(schedule, trace_level="off")
        assert len(without) == 64
        assert without == with_trace


class TestLifecycle:
    def test_double_inject_rejected(self):
        exp = build_exp()
        injector = FaultInjector(exp, FaultSchedule().link_down(1, 2, at=0.0))
        injector.inject()
        with pytest.raises(FaultError, match="already injected"):
            injector.inject()

    def test_double_finalize_rejected(self):
        exp = build_exp()
        injector = FaultInjector(exp, FaultSchedule())
        injector.run()
        with pytest.raises(FaultError, match="already finalized"):
            injector.finalize()

    def test_reports_ordered_by_schedule_index(self):
        _, result = run_schedule(
            FaultSchedule()
            .link_down(1, 2, at=1.0)
            .link_up(1, 2, at=4.0)
            .session_reset(1, 2, at=8.0)
        )
        assert [r.index for r in result.reports] == [0, 1, 2]
        assert [r.kind for r in result.reports] == [
            "link_down", "link_up", "session_reset",
        ]
        assert result.ok

    def test_every_report_measured_with_ordering_chain(self):
        _, result = run_schedule(canned_schedule("stress-composite"),
                                 reserved=frozenset({1, 2, 3}),
                                 origins=(1, 2, 3), sdn_count=2)
        assert result.ok
        for report in result.reports:
            m = report.measurement
            assert m is not None
            assert m.t_settled >= m.t_converged
            assert m.t_converged >= m.t_state_converged >= m.t_event
            assert not InvariantChecker.check_measurement(m)


class TestRouterCrash:
    def test_crash_wipes_rib_and_restart_recovers(self):
        exp = build_exp(mrai=1.0)
        node = exp.node(2)
        assert len(node.loc_rib) > 0
        injector = FaultInjector(
            exp, FaultSchedule().router_crash(2, at=1.0, down_for=3.0)
        )
        injector.inject()
        exp.net.sim.run(until=exp.now + 2.0)
        # mid-outage: state wiped, no BGP routes in the FIB
        assert len(node.loc_rib) == 0
        assert not [e for e in node.fib if e.source.startswith("bgp")]
        assert not node.established_sessions()
        exp.wait_converged()
        result = injector.finalize()
        assert result.ok
        assert exp.all_reachable()
        # its own prefix is re-announced after restart
        assert node.loc_rib.get(exp.as_prefix(2)) is not None

    def test_sdn_member_crash_recovers(self):
        exp = build_exp(sdn_count=3, mrai=1.0)
        crashed = max(exp.topology.asns)  # highest ASN converts first
        result = FaultInjector(
            exp, FaultSchedule().router_crash(crashed, at=1.0, down_for=2.0)
        ).run()
        assert result.ok
        assert exp.all_reachable()


class TestControllerFaults:
    def test_controller_fault_skipped_without_controller(self):
        _, result = run_schedule(
            FaultSchedule()
            .controller_fail(at=1.0, outage=2.0)
            .controller_partition(at=5.0, duration=1.0),
            sdn_count=0,
        )
        assert [r.skipped for r in result.reports] == [True, True]
        assert result.ok

    def test_blackout_defers_and_reconciles(self):
        _, result = run_schedule(
            canned_schedule("controller-blackout"),
            sdn_count=3, reserved=frozenset({1}), origins=(1,), mrai=1.0,
        )
        assert result.ok
        assert not any(r.skipped for r in result.reports)

    def test_origination_faults_on_cluster_member_origin(self):
        # announce/withdraw faults must route through the controller
        # when the origin AS is itself an SDN member (full deployment)
        exp, result = run_schedule(
            FaultSchedule().withdraw(1, at=1.0).announce(1, at=3.0),
            sdn_count=6, reserved=frozenset(), origins=(1,), mrai=1.0,
        )
        assert result.ok
        assert not any(r.skipped for r in result.reports)
        prefix = exp.as_prefix(1)
        assert exp.node(1).name in exp.controller.originations[prefix]

    def test_partition_heals_clean(self):
        exp, result = run_schedule(
            canned_schedule("speaker-partition"),
            sdn_count=3, reserved=frozenset({1}), origins=(1,), mrai=1.0,
        )
        assert result.ok
        assert exp.speaker.controller_reachable
        assert exp.all_reachable()


class TestLinkFaults:
    def test_degrade_restores_quality(self):
        exp = build_exp()
        link = exp.phys_link(1, 2)
        before = link.latency
        result = FaultInjector(
            exp,
            FaultSchedule().link_degrade(
                1, 2, at=1.0, duration=3.0, latency=before * 10
            ),
        ).run()
        assert result.ok
        assert link.latency == before

    def test_flap_ends_with_link_up(self):
        exp, result = run_schedule(
            FaultSchedule(fault_seed=5).link_flap(
                1, 2, at=1.0, count=3, interval=0.5, jitter=0.2
            )
        )
        assert result.ok
        assert exp.phys_link(1, 2).up

    def test_prefix_flap_parity(self):
        # odd count starting with withdraw ends withdrawn
        exp, result = run_schedule(
            FaultSchedule().prefix_flap(
                1, at=1.0, count=3, interval=0.5, first="withdraw"
            ),
            mrai=1.0,
        )
        assert result.ok
        assert exp.node(1).loc_rib.get(exp.as_prefix(1)) is None
        # even count ends announced
        exp2, result2 = run_schedule(
            FaultSchedule().prefix_flap(
                1, at=1.0, count=2, interval=0.5, first="withdraw"
            ),
            mrai=1.0,
        )
        assert result2.ok
        assert exp2.node(1).loc_rib.get(exp2.as_prefix(1)) is not None


class TestStrictMode:
    def test_strict_raises_on_manufactured_violation(self):
        exp = build_exp()
        injector = FaultInjector(
            exp, FaultSchedule().link_down(1, 2, at=1.0), strict=True
        )
        injector.inject()
        exp.wait_converged()
        # corrupt state behind BGP's back: origin forgets it originated
        # its prefix while the Loc-RIB still holds the local best.
        del exp.node(1).originated[exp.as_prefix(1)]
        with pytest.raises(InvariantError, match="stale_loc_rib"):
            injector.finalize()

    def test_strict_raises_on_a_decision_the_full_scan_rejects(self):
        exp = build_exp()
        injector = FaultInjector(
            exp, FaultSchedule().link_down(1, 2, at=1.0), strict=True
        )
        injector.inject()
        exp.wait_converged()
        force_longer_path(exp)
        with pytest.raises(InvariantError, match="decision @ as3"):
            injector.finalize()

    def test_strict_passes_clean_run(self):
        exp = build_exp()
        result = FaultInjector(
            exp, FaultSchedule().link_down(1, 2, at=1.0), strict=True
        ).run()
        assert result.ok

    def test_check_invariants_false_skips_checks(self):
        exp = build_exp()
        injector = FaultInjector(
            exp, FaultSchedule().link_down(1, 2, at=1.0),
            check_invariants=False,
        )
        injector.inject()
        exp.wait_converged()
        del exp.node(1).originated[exp.as_prefix(1)]
        result = injector.finalize()
        assert result.ok  # no checker attached, nothing reported
