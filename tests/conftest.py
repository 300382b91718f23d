"""Shared fixtures for the test suite."""

import pytest

from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers
from repro.eventsim import Simulator
from repro.net.network import Network


@pytest.fixture
def sim():
    return Simulator(seed=42)


@pytest.fixture
def net():
    return Network(seed=42)


def subscribe_records(bus, categories=None):
    """A list that receives every record ``bus`` publishes from now on
    (matching ``categories``, dotted prefixes, when given).  Subscribe
    an experiment's list between ``build()`` and ``start()``: a build
    publishes nothing, so the list then holds the whole run."""
    records = []
    bus.subscribe(records.append, categories=categories)
    return records


def select(records, category=None, *, node=None, since=None):
    """The ``records`` in ``category`` (and everything nested under it),
    at ``node``, at or after ``since`` — each criterion when given."""
    return [
        r for r in records
        if (category is None or r.matches(category))
        and (node is None or r.node == node)
        and (since is None or r.time >= since)
    ]


def touching(records, prefix):
    """The ``bgp.update.*`` ``records`` that announce or withdraw
    ``prefix``."""
    text = str(prefix)
    return [
        r for r in records
        if text in r.data["withdrawn"]
        or any(p == text for p, _ in r.data["announced"])
    ]


@pytest.fixture
def records(net):
    """Every record ``net`` publishes after the fixture is set up."""
    return subscribe_records(net.bus)


@pytest.fixture
def sim_records(sim):
    """Every record ``sim``'s bus publishes after the fixture is set up."""
    return subscribe_records(sim.bus)


def make_bgp_mesh(net, n, *, timers=None, start=True):
    """Fully meshed legacy BGP routers as1..asN on ``net``."""
    timers = timers or BGPTimers(mrai=1.0)
    routers = []
    for i in range(1, n + 1):
        router = BGPRouter(net.sim, f"as{i}", asn=i, timers=timers)
        net.add_node(router)
        routers.append(router)
    for i in range(n):
        for j in range(i + 1, n):
            link = net.add_link(routers[i], routers[j], latency=0.01)
            routers[i].add_peer(link)
            routers[j].add_peer(link)
    if start:
        for router in routers:
            router.start()
        net.sim.run_until_settled()
    return routers


@pytest.fixture
def bgp_pair(net):
    """Two established BGP peers."""
    return make_bgp_mesh(net, 2)


@pytest.fixture
def bgp_triangle(net):
    """Three establish-and-settled BGP peers in a triangle."""
    return make_bgp_mesh(net, 3)
