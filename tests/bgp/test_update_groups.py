"""Update groups: one export evaluation per (policy, local ASN, best).

Sessions that share one ``PeerPolicy`` object and speak as one ASN
export the same attributes for a prefix, so ``BGPRouter._export_attrs``
evaluates the export policy once per Loc-RIB best and hands every
session of the group the same object.  Split horizon stays per session,
and the per-session output runs stay too: a run that sends nothing still
draws its MRAI period, which every pinned result depends on.
"""

import random

from repro.bgp.policy import PeerPolicy, transit_all_policy
from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.experiments.common import paper_config
from repro.experiments.scale import SCALE_MRAI
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment
from repro.net.addr import Prefix
from repro.topology.builders import clique
from repro.topology.caida import caida_hierarchy
from tests.conftest import make_bgp_mesh

PFX = Prefix.parse("192.168.0.0/24")


class CountingPolicy:
    """A shared transit-all policy whose export evaluations are counted
    (``PeerPolicy.export_attrs`` patched for this one object)."""

    def __init__(self, monkeypatch):
        self.evaluations = 0
        self.policy = transit_all_policy()
        export = PeerPolicy.export_attrs

        def counted(policy, *args):
            if policy is self.policy:
                self.evaluations += 1
            return export(policy, *args)

        monkeypatch.setattr(PeerPolicy, "export_attrs", counted)


def star(net, spokes=4, policy=None):
    """Hub ``hub`` (AS1) with spokes s2.. whose hub-side sessions all
    hold ``policy``; returns ``(hub, [spoke, ...], {spoke: hub session})``."""
    timers = BGPTimers(mrai=1.0)
    hub = net.add_node(BGPRouter(net.sim, "hub", asn=1, timers=timers))
    nodes, toward = [], {}
    for asn in range(2, spokes + 2):
        spoke = net.add_node(
            BGPRouter(net.sim, f"s{asn}", asn=asn, timers=timers)
        )
        link = net.add_link(hub, spoke, latency=0.01)
        toward[spoke] = hub.add_peer(link, policy=policy)
        spoke.add_peer(link)
        nodes.append(spoke)
    for router in [hub] + nodes:
        router.start()
    net.sim.run_until_settled()
    return hub, nodes, toward


class TestOneEvaluationPerGroup:
    def test_shared_policy_evaluates_once_per_best_change(
        self, net, monkeypatch
    ):
        counting = CountingPolicy(monkeypatch)
        hub, spokes, toward = star(net, policy=counting.policy)
        origin, others = spokes[0], spokes[1:]
        origin.originate(PFX)
        net.sim.run_until_settled()
        # one best change at the hub, three sessions exporting it
        assert counting.evaluations == 1
        sent = [toward[s].rib_out.get(PFX) for s in others]
        assert sent[0] is not None
        assert all(attrs is sent[0] for attrs in sent)
        assert sent[0].as_path.asns == (1, origin.asn)
        for spoke in others:
            assert spoke.loc_rib.get(PFX).attrs.as_path.asns == (1, origin.asn)
        # split horizon is still per session: nothing goes back to the origin
        assert toward[origin].rib_out.get(PFX) is None

        origin.withdraw(PFX)
        net.sim.run_until_settled()
        assert counting.evaluations == 1  # no best, nothing to export
        origin.originate(PFX)
        net.sim.run_until_settled()
        assert counting.evaluations == 2

    def test_memo_equals_a_fresh_evaluation_everywhere(self):
        """On a valley-free hierarchy (one policy object per relationship,
        so groups of every size), every session's export equals the
        policy evaluated afresh, split horizon included."""
        exp = Experiment(
            caida_hierarchy(60),
            config=paper_config(seed=2, policy_mode="gao_rexford", mrai=1.0),
        ).start()
        prefix = exp.announce(7)
        exp.wait_converged()
        checked = 0
        for node in exp.as_nodes():
            best = node.loc_rib.get(prefix)
            if best is None:
                continue
            for session in node.sessions.values():
                got = node._export_attrs(session, prefix)
                if best.peer_name == session.peer_name and not best.is_local:
                    assert got is None
                    continue
                learned = (
                    None if best.is_local
                    else node.sessions[best.link_id].policy.relationship
                )
                want = session.policy.export_attrs(
                    best.attrs, learned, session.local_asn
                )
                assert got is want
                checked += 1
        assert checked > 100


class TestMemoLifetime:
    def test_dropped_on_best_change(self, net):
        hub, spokes, _ = star(net)
        spokes[0].originate(PFX)
        net.sim.run_until_settled()
        assert PFX in hub._export_memo
        spokes[0].withdraw(PFX)
        net.sim.run_until_settled()
        assert PFX not in hub._export_memo
        assert hub.loc_rib.get(PFX) is None

    def test_dropped_on_crash_and_rebuilt_after_restart(self):
        exp = Experiment(
            clique(4), config=paper_config(seed=1, mrai=1.0)
        ).start()
        prefix = exp.announce(1)
        exp.wait_converged()
        origin = exp.node(1)
        assert prefix in origin._export_memo
        # The crash wipes an originated prefix's local best without a
        # decision, so only crash() itself can drop its memo entry.
        exp.crash_router(1)
        assert origin._export_memo == {}
        exp.wait_converged()
        exp.restart_router(1)
        exp.wait_converged()
        for session in origin.sessions.values():
            sent = session.rib_out.get(prefix)
            assert sent is not None and sent.as_path.asns == (1,)
        for asn in (2, 3, 4):
            best = exp.node(asn).loc_rib.get(prefix)
            assert best.attrs.as_path.asns == (1,)

    def test_export_prepend_is_its_own_group(self):
        exp = Experiment(clique(3), config=paper_config(seed=1, mrai=1.0))
        exp.build()
        exp.set_export_prepend(1, toward=2, count=3)
        exp.start()
        prefix = exp.announce(1)
        exp.wait_converged()
        origin = exp.node(1)
        to2 = origin.session_on(exp.phys_link(1, 2))
        to3 = origin.session_on(exp.phys_link(1, 3))
        # the prepended session holds a new policy object: its own group
        assert to2.policy is not to3.policy
        best, exports = origin._export_memo[prefix]
        assert best is origin.loc_rib.get(prefix)
        groups = {policy for policy, _ in exports}
        assert {to2.policy, to3.policy} <= groups
        assert to2.rib_out.get(prefix).as_path.asns == (1, 1, 1, 1)
        assert to3.rib_out.get(prefix).as_path.asns == (1,)


class TestOutputRunsStay:
    def test_empty_output_run_draws_one_mrai_period(self, net):
        """The draw order on ``bgp.mrai`` is part of every pinned result,
        so a run that sends nothing must still consume its draw."""
        a, b = make_bgp_mesh(net, 2, timers=BGPTimers(mrai=30.0))
        a.originate(PFX)
        net.sim.run_until_settled()
        # b's best came from a: split horizon leaves b nothing to send a
        session = next(iter(b.sessions.values()))
        assert b._export_attrs(session, PFX) is None
        assert session.rib_out.get(PFX) is None
        rng = net.sim.rng("bgp.mrai")
        state = rng.getstate()
        sent = session.updates_sent
        session.schedule_route(PFX)  # an output run, through the kernel
        net.sim.run_until_settled()
        assert session.updates_sent == sent
        assert session.mrai_expires_at is None
        one_draw = random.Random()
        one_draw.setstate(state)
        one_draw.uniform(22.5, 30.0)
        assert rng.getstate() == one_draw.getstate()

    def test_storm_cycle_event_count_is_pinned(self):
        """Kernel events are the unit of the storm benchmark's
        ``events_per_s``, and most of them are output runs, most of
        which send nothing.  One announce + withdraw cycle on a lean
        300-AS hierarchy pins both counts, so a change that drops events
        (or output runs) has to re-pin them on purpose.  The next
        ``bgp.mrai`` value pins the draws: a dropped or extra draw
        moves it even when the counts hold."""
        exp = Experiment(
            caida_hierarchy(300),
            sdn_members=frozenset(),
            config=paper_config(
                seed=7, mrai=SCALE_MRAI, policy_mode="gao_rexford",
                trace_level="off", lean=True,
            ),
        ).build()
        exp.start()
        sim = exp.net.sim
        output_runs = []
        sim.set_dispatch_hook(
            lambda event, wall: event.label.endswith(":flush")
            and output_runs.append(event)
        )
        before = sim.events_processed
        prefix = {}
        measure_event(exp, lambda: prefix.setdefault("p", exp.announce(1)))
        measure_event(exp, lambda: exp.withdraw(1, prefix["p"]))
        assert sim.events_processed - before == 4550
        assert len(output_runs) == 2120
        assert sim.rng("bgp.mrai").random() == 0.7816131704624171
