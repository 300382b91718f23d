"""Point-to-point links between emulated nodes.

A link models what a Mininet veth pair gives the paper's framework:
propagation latency, optional random loss, and administrative up/down
state.  Nodes are notified synchronously of state changes so BGP "fast
fallover" (Quagga's interface-down session reset) can be emulated; a
configurable detection delay covers the slower hold-timer path.

A topology ("phys") link owns a /30 transfer network out of the
configuration layer's pool (``repro.config.allocator``).  It keeps only
the net's allocation index; its prefix and endpoint addresses are
derived on demand, since only rendered router configs read them.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import TYPE_CHECKING, Optional

from .addr import IPv4Address, Prefix
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

__all__ = ["Link", "LinkDown"]

_link_ids = itertools.count(1)


class LinkDown(RuntimeError):
    """Raised when transmitting on an administratively-down link."""


class Link:
    """Bidirectional point-to-point link between two nodes.

    Parameters
    ----------
    a, b:
        Endpoint nodes; the link registers itself on both.
    latency:
        One-way propagation delay in (virtual) seconds.
    loss:
        Per-message drop probability in ``[0, 1)``; applied per direction
        using the simulator's ``link.loss`` random stream.
    kind:
        Free-form tag — ``"phys"`` for topology links, ``"control"`` for
        the out-of-band switch-to-controller channel, ``"collector"`` for
        route-collector peerings.  Analysis and visualization group by it.
    """

    def __init__(
        self,
        a: "Node",
        b: "Node",
        *,
        latency: float = 0.01,
        loss: float = 0.0,
        kind: str = "phys",
        name: Optional[str] = None,
    ) -> None:
        if a is b:
            raise ValueError("self-loops are not supported")
        if latency < 0:
            raise ValueError(f"latency must be >= 0: {latency!r}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss!r}")
        self.link_id = next(_link_ids)
        self.a = a
        self.b = b
        self.latency = latency
        self.loss = loss
        self.kind = kind
        self.name = name or f"link{self.link_id}"
        #: every delivery's event label, made once (labels are diagnostics).
        self._deliver_label = f"{self.name}:deliver"
        self.up = True
        #: index of the link's /30 transfer net in the allocator's pool
        #: (None: unaddressed — every link but a topology one).
        self.net_index: Optional[int] = None
        self.tx_count = 0
        self.drop_count = 0
        self._sim = a.sim
        if b.sim is not self._sim:
            raise ValueError("endpoints belong to different simulators")
        a.attach_link(self)
        b.attach_link(self)

    # ------------------------------------------------------------------
    def other(self, node: "Node") -> "Node":
        """The endpoint that is not ``node``."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def connects(self, x: "Node", y: "Node") -> bool:
        """True when the link joins exactly these two nodes."""
        return {x, y} == {self.a, self.b}

    def _transfer_net(self):
        # ``repro.config`` sits above this layer (its templates import
        # the BGP layer, which imports this module): import at call time.
        from ..config.allocator import transfer_net

        return transfer_net(self.net_index)

    @property
    def prefix(self) -> Optional[Prefix]:
        """The link's /30 transfer net, if it has one."""
        if self.net_index is None:
            return None
        return self._transfer_net()[0]

    @property
    def addresses(self) -> dict[str, IPv4Address]:
        """Endpoint name -> link address (empty when unaddressed)."""
        if self.net_index is None:
            return {}
        _, addr_a, addr_b = self._transfer_net()
        return {self.a.name: addr_a, self.b.name: addr_b}

    def address_of(self, node: "Node") -> Optional[IPv4Address]:
        """The link address assigned to one endpoint."""
        return self.addresses.get(node.name)

    # ------------------------------------------------------------------
    def transmit(
        self, sender: "Node", message: Message, *, background: bool = False
    ) -> bool:
        """Send ``message`` to the far end after ``latency`` seconds.

        Returns True if the message was queued for delivery, False if it
        was dropped by the loss process.  Raises :class:`LinkDown` when
        the link is administratively down — senders are expected to have
        been notified, so this signals a protocol bug.

        ``background=True`` marks the delivery as routing-irrelevant
        (probe packets): it will not hold up
        convergence detection.
        """
        if not self.up:
            raise LinkDown(f"{self.name} is down")
        receiver = self.other(sender)
        if self.loss > 0.0 and self._sim.rng("link.loss").random() < self.loss:
            self.drop_count += 1
            return False
        self.tx_count += 1
        obs = sender.bus.obs
        if obs is not None and obs.current is not None:
            # Provenance: the in-flight message carries its sender's
            # causal context; the receiving node restores it on delivery.
            message._prov = obs.current
        # A partial, not a lambda: the delivery's owner is the receiver
        # (``repro.eventsim.metrics.event_layer``), not this module.
        self._sim.schedule(
            self.latency,
            partial(receiver.receive, self, message),
            background=background,
            label=self._deliver_label,
        )
        return True

    # ------------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Administratively raise/lower the link, notifying both ends.

        In-flight messages already scheduled are still delivered (they
        were "on the wire"); new transmissions fail.  Endpoint nodes get
        ``link_state_changed`` callbacks, from which BGP sessions reset.
        """
        if self.up == up:
            return
        self.up = up
        obs = self.a.bus.obs
        if obs is None:
            for node in (self.a, self.b):
                node.link_state_changed(self)
            return
        # Provenance: a link transition is a root cause — session resets
        # and the withdrawals they trigger hang off this span.
        ctx = obs.emit_root(
            "link.up" if up else "link.down", self.name,
            a=self.a.name, b=self.b.name,
        )
        prev = obs.swap(ctx)
        try:
            for node in (self.a, self.b):
                node.link_state_changed(self)
        finally:
            obs.swap(prev)

    def set_latency(self, latency: float) -> float:
        """Change propagation delay; returns the previous value.

        In-flight messages keep the latency they were sent with (their
        delivery is already scheduled); only new transmissions see the
        new value — the same semantics as reconfiguring a live veth.
        """
        if latency < 0:
            raise ValueError(f"latency must be >= 0: {latency!r}")
        previous = self.latency
        self.latency = latency
        return previous

    def set_loss(self, loss: float) -> float:
        """Change the drop probability; returns the previous value."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss!r}")
        previous = self.loss
        self.loss = loss
        return previous

    def fail(self) -> None:
        """Convenience: take the link down."""
        self.set_up(False)

    def restore(self) -> None:
        """Convenience: bring the link back up."""
        self.set_up(True)

    def close(self) -> None:
        """Let go of both endpoints (the end of a trial, see
        :meth:`~repro.net.network.Network.close`): every way from a
        node through a link (its link list, a FIB entry, a session, the
        controller's control links) back to a node passes here."""
        self.a = self.b = None

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {self.a.name}<->{self.b.name} {state}>"
