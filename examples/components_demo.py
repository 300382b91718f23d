#!/usr/bin/env python3
"""Fig. 1 walk-through: every component of a hybrid BGP/SDN experiment.

Recreates the paper's example setup — a legacy BGP part, an SDN cluster
with OpenFlow switches, the cluster BGP speaker, the IDR controller, a
route collector, and monitoring hosts — then shows the framework's
tooling: device inventory, rendered Quagga/ExaBGP configs, the DOT
topology export, and a live route-change timeline.

Run:  python examples/components_demo.py
"""

from repro.analysis import route_change_timeline, route_history, topology_dot
from repro.bgp import BGPRouter, RouteCollector
from repro.config import render_bgpd_conf, render_exabgp_conf
from repro.experiments import paper_config
from repro.framework import Experiment
from repro.sdn import SDNSwitch
from repro.topology import clique


def main():
    sdn_members = {4, 5, 6}
    topology = clique(6)
    exp = Experiment(
        topology,
        sdn_members=sdn_members,
        config=paper_config(seed=7, mrai=5.0),
        name="fig1-demo",
    ).start()

    print("== Components (paper Fig. 1) ==")
    legacy = [n for n in exp.as_nodes() if isinstance(n, BGPRouter)]
    switches = [n for n in exp.as_nodes() if isinstance(n, SDNSwitch)]
    print(f"legacy BGP routers : {[n.name for n in legacy]}")
    print(f"SDN cluster members: {[n.name for n in switches]}")
    print(f"IDR controller     : {exp.controller.name} "
          f"({len(exp.controller.members())} members, "
          f"{exp.controller.recomputations} recomputations so far)")
    print(f"cluster BGP speaker: {exp.speaker.name} "
          f"({len(exp.speaker.peerings())} external peerings)")
    collectors = exp.net.nodes_of_type(RouteCollector)
    print(f"route collector    : {collectors[0].name} "
          f"({exp.net.bus.count('collector.update')} updates collected)")

    host_a = exp.add_host(1)
    host_b = exp.add_host(5)
    exp.wait_converged()
    print(f"monitoring hosts   : {host_a.name} ({host_a.address}), "
          f"{host_b.name} ({host_b.address})")

    print("\n== Connectivity check (ping across the hybrid boundary) ==")
    rtt = exp.ping(1, 5)
    print(f"as1 -> as5 (SDN member): rtt = {rtt * 1000:.1f} ms")
    print(f"all AS pairs reachable : {exp.all_reachable()}")

    print("\n== Rendered Quagga config for as1 (excerpt) ==")
    conf = render_bgpd_conf(exp.node(1))
    print("\n".join(conf.splitlines()[:14]))

    print("\n== Rendered ExaBGP config for the cluster speaker (excerpt) ==")
    print("\n".join(render_exabgp_conf(exp.speaker).splitlines()[:9]))

    print("\n== Route-change visualization: withdrawal of a prefix ==")
    prefix = exp.announce(1)
    exp.wait_converged()
    t0 = exp.now
    decisions = []
    exp.net.bus.subscribe(decisions.append, categories=("bgp.decision",))
    exp.withdraw(1, prefix)
    exp.wait_converged()
    changes = route_history(decisions, prefix)
    print(route_change_timeline(changes, t0=t0, max_rows=12))

    print("\n== Graphviz export (render with `dot -Tpng`) ==")
    print("\n".join(topology_dot(topology, sdn_members=sdn_members).splitlines()[:8]))
    print("...")


if __name__ == "__main__":
    main()
