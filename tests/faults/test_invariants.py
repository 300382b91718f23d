"""Invariant checker tests: clean state passes, corrupted state is caught."""

from repro.experiments.common import paper_config, sdn_set_for
from repro.faults import InvariantChecker, InvariantError, InvariantViolation
from repro.framework.convergence import ConvergenceMeasurement
from repro.framework.experiment import Experiment
from repro.topology.builders import clique


def build_exp(sdn_count=0, n=5, seed=1):
    topo = clique(n)
    members = sdn_set_for(topo, sdn_count, frozenset({1}))
    exp = Experiment(
        topo, sdn_members=members,
        config=paper_config(seed=seed, mrai=1.0),
    ).start()
    exp.announce(1, exp.as_prefix(1))
    exp.wait_converged()
    return exp


class TestCleanState:
    def test_converged_pure_bgp_passes(self):
        assert InvariantChecker(build_exp()).check() == []

    def test_converged_hybrid_passes(self):
        assert InvariantChecker(build_exp(sdn_count=2)).check() == []

    def test_controller_sync_skipped_without_controller(self):
        assert InvariantChecker(build_exp()).check_controller_sync() == []


def force_longer_path(exp, asn=3):
    """Behind the decision process's back, make AS ``asn`` prefer a
    longer path to AS1's prefix than the one it holds."""
    node = exp.node(asn)
    prefix = exp.as_prefix(1)
    best = node.loc_rib.get(prefix)
    longer = next(
        r for r in node.candidates(prefix)
        if r.as_path_len > best.as_path_len
    )
    assert node.loc_rib.set_best(longer)
    return node, prefix


class TestCorruptedState:
    def test_forgotten_origination_is_stale(self):
        exp = build_exp()
        del exp.node(1).originated[exp.as_prefix(1)]
        violations = InvariantChecker(exp).check_loc_rib_consistency()
        assert any(v.check == "stale_loc_rib" for v in violations)

    def test_learned_route_without_backing_adj_rib_in(self):
        exp = build_exp()
        node = exp.node(3)
        route = node.loc_rib.get(exp.as_prefix(1))
        session = node.sessions[route.link_id]
        session.rib_in.withdraw(route.prefix)
        violations = InvariantChecker(exp).check_loc_rib_consistency()
        assert any(
            v.check == "stale_loc_rib" and v.node == node.name
            for v in violations
        )

    def test_fib_entry_without_loc_rib_best(self):
        exp = build_exp()
        node = exp.node(3)
        node.loc_rib.remove(exp.as_prefix(1))
        violations = InvariantChecker(exp).check_loc_rib_consistency()
        assert any(v.check == "fib_sync" for v in violations)

    def test_loc_rib_best_missing_from_fib(self):
        exp = build_exp()
        node = exp.node(3)
        node.fib.remove(exp.as_prefix(1))
        violations = InvariantChecker(exp).check_loc_rib_consistency()
        assert any(
            v.check == "fib_sync" and "missing from FIB" in v.detail
            for v in violations
        )

    def test_tampered_loc_rib_is_one_decision_violation(self):
        exp = build_exp()
        node, prefix = force_longer_path(exp)
        # every other check still passes: the forced route is live in
        # its peer's table and the prefix is in the FIB.
        (violation,) = InvariantChecker(exp).check()
        assert violation.check == "decision"
        assert violation.node == node.name
        assert str(prefix) in violation.detail
        assert violation.time == exp.now

    def test_unreachability_is_not_a_loop_violation(self):
        exp = build_exp()
        # sever every link of AS4: destinations become unreachable, but
        # that is legitimate fault fallout, not a forwarding loop.
        for link in list(exp.node(4).links):
            link.fail()
        exp.wait_converged()
        assert InvariantChecker(exp).check_forwarding_loops() == []


class TestMeasurementOrdering:
    def test_clean_chain_passes(self):
        m = ConvergenceMeasurement(
            t_event=1.0, t_converged=3.0, t_settled=4.0,
            t_state_converged=2.0,
        )
        assert InvariantChecker.check_measurement(m) == []

    def test_settle_before_convergence_flagged(self):
        m = ConvergenceMeasurement(
            t_event=1.0, t_converged=3.0, t_settled=2.0,
        )
        violations = InvariantChecker.check_measurement(m, fault="#0 test")
        assert len(violations) == 1
        assert violations[0].check == "measurement_order"
        assert "t_settled" in violations[0].detail

    def test_state_after_activity_flagged(self):
        m = ConvergenceMeasurement(
            t_event=1.0, t_converged=2.0, t_settled=5.0,
            t_state_converged=3.0,
        )
        violations = InvariantChecker.check_measurement(m)
        assert any("t_state_converged" in v.detail for v in violations)


class TestErrorType:
    def test_invariant_error_carries_violations(self):
        violation = InvariantViolation(
            time=1.0, check="fib_sync", node="as3", detail="boom"
        )
        error = InvariantError([violation])
        assert error.violations == [violation]
        assert "fib_sync" in str(error)
        assert isinstance(error, AssertionError)
