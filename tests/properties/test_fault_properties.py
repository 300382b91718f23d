"""Property-based tests: random topologies + fault schedules.

Three families of properties, each over hypothesis-generated inputs:

1. **Invariants hold**: any generated fault schedule on any small
   topology leaves the network with no forwarding loops, no stale
   Loc-RIB state, and well-ordered per-fault measurements.
2. **Determinism**: running the identical (topology, schedule, seeds)
   twice yields bit-identical event traces and convergence times.
3. **Centralization helps**: on a clique with a meaningful MRAI, the
   full-SDN deployment never converges *slower* than pure BGP on a
   withdrawal — the paper's core claim, as a property.

The suite is skipped cleanly when hypothesis is not installed (it is an
optional dependency; CI runs it in a dedicated job).  Examples are
bounded and derandomized so the suite stays fast and reproducible.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.eventsim import RecordDigest  # noqa: E402
from repro.experiments.common import paper_config, sdn_set_for  # noqa: E402
from repro.faults import FaultInjector, FaultSchedule  # noqa: E402
from repro.framework.convergence import measure_event  # noqa: E402
from repro.framework.experiment import Experiment  # noqa: E402
from repro.topology.builders import clique, line, ring, star  # noqa: E402

pytestmark = pytest.mark.properties

BOUNDED = settings(max_examples=10, deadline=None, derandomize=True)

TOPOLOGIES = {"clique": clique, "ring": ring, "star": star, "line": line}


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def topology_spec(draw):
    name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    n = draw(st.integers(min_value=3, max_value=6))
    return name, n


@st.composite
def fault_schedule(draw, n):
    """A small schedule of structurally valid faults for an n-AS net.

    Only faults whose actors exist are generated; AS 1 is reserved
    legacy (it is also the announcing origin), so session resets and
    crashes target it or its neighbours safely on every topology
    (builders connect AS 1 <-> AS 2 in all four families).
    """
    schedule = FaultSchedule(fault_seed=draw(st.integers(0, 3)))
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        at = 1.0 + 2.0 * index + draw(
            st.floats(0.0, 1.0, allow_nan=False, width=16)
        )
        kind = draw(
            st.sampled_from(
                ["link_outage", "session_reset", "router_crash",
                 "prefix_flap", "controller_fail", "controller_partition"]
            )
        )
        if kind == "link_outage":
            schedule.link_down(1, 2, at=at)
            schedule.link_up(1, 2, at=at + draw(st.floats(0.5, 2.0)))
        elif kind == "session_reset":
            schedule.session_reset(1, 2, at=at)
        elif kind == "router_crash":
            asn = draw(st.integers(min_value=2, max_value=n))
            schedule.router_crash(
                asn, at=at, down_for=draw(st.floats(1.0, 3.0))
            )
        elif kind == "prefix_flap":
            schedule.prefix_flap(
                1, at=at,
                count=draw(st.integers(1, 3)),
                interval=draw(st.floats(0.2, 0.8)),
                first=draw(st.sampled_from(["withdraw", "announce"])),
            )
        elif kind == "controller_fail":
            schedule.controller_fail(at=at, outage=draw(st.floats(0.5, 2.0)))
        else:
            schedule.controller_partition(
                at=at, duration=draw(st.floats(0.5, 2.0))
            )
    return schedule


def build_experiment(topo_name, n, sdn_count, seed, mrai=2.0):
    """The converged experiment and the digest of its whole run."""
    topology = TOPOLOGIES[topo_name](n)
    members = sdn_set_for(topology, sdn_count, frozenset({1}))
    exp = Experiment(
        topology, sdn_members=members,
        config=paper_config(seed=seed, mrai=mrai),
    ).build()
    digest = RecordDigest(exp.net.bus)
    exp.start()
    exp.announce(1, exp.as_prefix(1))
    exp.wait_converged()
    return exp, digest


def run_faults(topo_name, n, sdn_count, seed, schedule):
    """A scenario's result and the digest of its whole run."""
    exp, digest = build_experiment(topo_name, n, sdn_count, seed)
    injector = FaultInjector(exp, schedule)
    return injector.run(), digest.hexdigest()


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestInvariantsHold:
    @BOUNDED
    @given(
        topo=topology_spec(),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_random_schedule_preserves_invariants(self, topo, seed, data):
        name, n = topo
        schedule = data.draw(fault_schedule(n))
        sdn_count = data.draw(st.integers(min_value=0, max_value=n - 1))
        result, _ = run_faults(name, n, sdn_count, seed, schedule)
        assert result.ok, "\n".join(str(v) for v in result.violations)

    @BOUNDED
    @given(
        topo=topology_spec(),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_per_fault_time_ordering(self, topo, seed, data):
        name, n = topo
        schedule = data.draw(fault_schedule(n))
        result, _ = run_faults(name, n, n - 1, seed, schedule)
        for report in result.reports:
            if report.measurement is None:
                continue
            m = report.measurement
            assert m.t_settled >= m.t_converged
            assert m.t_converged >= m.t_state_converged >= m.t_event


class TestDeterminism:
    @BOUNDED
    @given(
        topo=topology_spec(),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_identical_inputs_identical_traces(self, topo, seed, data):
        name, n = topo
        schedule = data.draw(fault_schedule(n))
        sdn_count = data.draw(st.integers(min_value=0, max_value=n - 1))
        first, first_digest = run_faults(name, n, sdn_count, seed, schedule)
        second, second_digest = run_faults(name, n, sdn_count, seed, schedule)
        assert first_digest == second_digest
        assert first.convergence_times() == second.convergence_times()
        assert first.t_end == second.t_end

    @BOUNDED
    @given(
        topo=topology_spec(),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_schedule_spec_form_is_behaviour_preserving(
        self, topo, seed, data
    ):
        """Round-tripping a schedule through its JSON spec must not
        change what it does."""
        name, n = topo
        schedule = data.draw(fault_schedule(n))
        revived = FaultSchedule.from_spec(schedule.to_json())
        _, first = run_faults(name, n, 1, seed, schedule)
        _, second = run_faults(name, n, 1, seed, revived)
        assert first == second


class TestCentralizationHelps:
    @BOUNDED
    @given(
        n=st.integers(min_value=4, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_full_sdn_withdrawal_never_slower_than_pure_bgp(self, n, seed):
        """The paper's claim as a property: with MRAI-paced path
        exploration (clique, mrai >= 5), replacing every convertible AS
        with the centralized cluster never slows a withdrawal down."""
        times = {}
        for sdn_count in (0, n - 1):
            topology = clique(n)
            members = sdn_set_for(topology, sdn_count, frozenset({1}))
            exp = Experiment(
                topology, sdn_members=members,
                config=paper_config(seed=seed, mrai=5.0),
            ).start()
            prefix = exp.announce(1)
            exp.wait_converged()
            m = measure_event(exp, lambda: exp.withdraw(1, prefix))
            times[sdn_count] = m.convergence_time
        assert times[n - 1] <= times[0]
