"""Render Quagga/ExaBGP-style configuration files.

The real framework manages Quagga ``bgpd.conf`` files and an ExaBGP
configuration for the cluster speaker.  Our devices are configured
programmatically, but the same information can be rendered to the
familiar formats — useful for debugging, for comparing against a real
deployment, and as a faithful artifact of the "configuration management"
the paper emphasizes.  Rendering is lossless for what the emulator
models: neighbors, AS numbers, networks, and per-neighbor route-maps
rendered from each session's policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..bgp.policy import PeerPolicy, PolicyMode, Relationship, exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bgp.router import BGPRouter
    from ..controller.speaker import ClusterBGPSpeaker

__all__ = ["render_bgpd_conf", "render_exabgp_conf", "render_route_map"]


#: where a route was learned (None: originated here), in the order a
#: valley-free ``out`` stanza names what it exports.
_LEARNED = (
    ("own", None),
    ("customer", Relationship.CUSTOMER),
    ("flat", Relationship.FLAT),
    ("peer", Relationship.PEER),
    ("provider", Relationship.PROVIDER),
)


def render_route_map(name: str, policy: PeerPolicy) -> List[str]:
    """Quagga route-map stanzas approximating one session's policy.

    A valley-free ``out`` stanza names the routes :func:`exports` lets
    through toward the peer; an AS-path prepend applies to what is
    permitted, so only permit stanzas carry it.
    """
    rel = policy.relationship.value
    if policy.mode is PolicyMode.VALLEY_FREE:
        imports = [("permit", f"import from {rel}")]
        exported = [
            what for what, learned in _LEARNED
            if exports(learned, policy.relationship)
        ]
        if len(exported) == len(_LEARNED):
            outs = [("permit", f"export all to {rel}")]
        else:
            outs = [
                ("permit", f"export {'/'.join(exported)} routes to {rel}"),
                ("deny", "implicit valley deny"),
            ]
    elif policy.mode is PolicyMode.TRANSIT_ALL:
        imports = [("permit", "accept all")]
        outs = [("permit", "export all")]
    else:
        imports = [("permit", "collector accepts all")]
        outs = [("deny", "collector is silent")]
    if policy.prepend:
        outs = [
            (verb, f"{text} +prepend x{policy.prepend}"
             if verb == "permit" else text)
            for verb, text in outs
        ]
    lines: List[str] = []
    for direction, stanzas in (("in", imports), ("out", outs)):
        for seq, (verb, text) in enumerate(stanzas, 1):
            lines.append(f"route-map {name}-{direction} {verb} {10 * seq}")
            lines.append(f" description {text}")
        lines.append("!")
    return lines


def render_bgpd_conf(router: "BGPRouter") -> str:
    """A ``bgpd.conf`` equivalent of one emulated router's configuration."""
    lines = [
        "! generated by repro.config.templates",
        f"hostname {router.name}",
        "password zebra",
        "!",
        f"router bgp {router.asn}",
        f" bgp router-id {router.address or '0.0.0.0'}",
        " bgp fast-external-fallover",
        " bgp always-compare-med",
    ]
    for prefix in sorted(router.originated):
        lines.append(f" network {prefix}")
    for link_id in sorted(router.sessions):
        session = router.sessions[link_id]
        neighbor = session.link.other(router)
        neighbor_addr = session.link.address_of(neighbor) or "0.0.0.0"
        rel = session.policy.relationship.value
        lines.append(f" neighbor {neighbor_addr} remote-as {_remote_as(session)}")
        lines.append(f" neighbor {neighbor_addr} description {neighbor.name} ({rel})")
        lines.append(
            f" neighbor {neighbor_addr} advertisement-interval "
            f"{int(session.timers.mrai)}"
        )
        lines.append(
            f" neighbor {neighbor_addr} route-map {neighbor.name}-in in"
        )
        lines.append(
            f" neighbor {neighbor_addr} route-map {neighbor.name}-out out"
        )
    lines.append("!")
    for link_id in sorted(router.sessions):
        session = router.sessions[link_id]
        neighbor = session.link.other(router)
        lines.extend(render_route_map(neighbor.name, session.policy))
    lines.append("line vty")
    lines.append("!")
    return "\n".join(lines) + "\n"


def _remote_as(session) -> str:
    if session.peer_asn:
        return str(session.peer_asn)
    return "external"


def render_exabgp_conf(speaker: "ClusterBGPSpeaker") -> str:
    """An ``exabgp.conf`` equivalent of the cluster speaker's sessions."""
    lines = ["# generated by repro.config.templates"]
    for link_id in sorted(speaker.sessions):
        session = speaker.sessions[link_id]
        peering = speaker.peering_of[link_id]
        lines.append(f"neighbor {peering.external} {{")
        lines.append(f"    description \"peering {peering}\";")
        lines.append(f"    local-as {session.local_asn};")
        lines.append(
            f"    peer-as {session.peer_asn if session.peer_asn else 'external'};"
        )
        lines.append(f"    # relayed via switch {peering.member}")
        lines.append("}")
    return "\n".join(lines) + "\n"
