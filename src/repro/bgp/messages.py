"""BGP message types (RFC 4271 §4, at the abstraction the emulator needs).

Messages travel over emulated links between session endpoints.  UPDATE
carries announcements (NLRI + shared attributes) and withdrawals in one
message, as on the wire; sessions batch per-peer pending changes into a
single UPDATE per MRAI round, which is what makes MRAI actually shape
convergence the way it does in Quagga.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..net.addr import Prefix
from ..net.messages import Message
from .attrs import PathAttributes

__all__ = [
    "BGPMessage",
    "BGPOpen",
    "BGPKeepalive",
    "BGPUpdate",
    "BGPNotification",
]

@dataclass(slots=True)
class BGPMessage(Message):
    """Common envelope: sender's AS number identifies the session peer."""

    sender_asn: int = 0

    def describe(self) -> str:
        """Short human-readable summary."""
        return f"{type(self).__name__}(AS{self.sender_asn})"


@dataclass(slots=True)
class BGPOpen(BGPMessage):
    """OPEN: carries the sender's AS and router-id (its node name here)."""

    router_id: str = ""


@dataclass(slots=True)
class BGPKeepalive(BGPMessage):
    """KEEPALIVE: acks OPEN (sessions send no periodic keepalives)."""


@dataclass(slots=True)
class BGPUpdate(BGPMessage):
    """UPDATE: announcements share one attribute set; withdrawals are bare.

    ``announced`` maps each NLRI prefix to its attributes — we allow
    per-prefix attributes in one message (a batching convenience; on the
    wire this would be several UPDATEs back-to-back, with identical
    timing).
    """

    announced: Tuple[Tuple[Prefix, PathAttributes], ...] = ()
    withdrawn: Tuple[Prefix, ...] = ()
    #: the message's number in its run, from the sending simulator's
    #: ``"bgp.update"`` serial (:meth:`~repro.eventsim.Simulator.serial`),
    #: so a trial's ids do not depend on what ran before it in the
    #: process; 0 on an UPDATE built outside a session.
    update_id: int = 0
    #: memo of :meth:`rendered`; like ``Message._prov`` the slot stays
    #: unset until used, so sending an UPDATE nobody traces never sets it.
    _rendered: Tuple[List[List[str]], List[str]] = field(
        init=False, repr=False, compare=False
    )

    @property
    def empty(self) -> bool:
        """True when there is nothing to send/do."""
        return not self.announced and not self.withdrawn

    def rendered(self) -> Tuple[List[List[str]], List[str]]:
        """``(announced, withdrawn)`` as a trace payload carries them —
        ``[[prefix, path], ...]`` and ``[prefix, ...]``, already in JSON
        shape.  Rendered once per message: the tx record and every rx
        record of one ``update_id`` share this pair of lists, which
        (like every payload) is only ever read."""
        try:
            return self._rendered
        except AttributeError:
            self._rendered = pair = (
                [[str(p), str(a.as_path)] for p, a in self.announced],
                [str(p) for p in self.withdrawn],
            )
            return pair

    def describe(self) -> str:
        """Short human-readable summary."""
        ann = ", ".join(f"{p}[{a.as_path}]" for p, a in self.announced)
        wd = ", ".join(str(p) for p in self.withdrawn)
        return f"UPDATE(AS{self.sender_asn} +[{ann}] -[{wd}])"


@dataclass(slots=True)
class BGPNotification(BGPMessage):
    """NOTIFICATION: sent on error/teardown; receiver drops the session."""

    code: str = "cease"
