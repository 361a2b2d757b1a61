"""Duplex links and switches.

A :class:`Link` cables two NICs together (directly or through a switch
port) and owns one fluid resource per direction, sized to the slower
endpoint's usable data rate.  Link fluid resources are tagged
``kind="link"`` so the TCP model can recognise network (loss-capable)
bottlenecks as opposed to host-side ones.  The cut WAN links of a
sharded fabric are not cabled here: :mod:`repro.sim.shard` stands each
one up as a single fluid resource with the same tag.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.nic import Nic
from repro.sim.fluid import FluidResource
from repro.util.validation import check_non_negative

__all__ = ["Link", "Switch", "connect"]


class Link:
    """A full-duplex point-to-point link between two NICs."""

    def __init__(
        self,
        a: Nic,
        b: Nic,
        delay: float = 83e-6,
        name: str = "",
        rate_override: Optional[float] = None,
    ):
        check_non_negative("delay", delay)
        if a is b:
            raise ValueError("cannot cable a NIC to itself")
        if a.link is not None or b.link is not None:
            raise ValueError("one of the NICs is already cabled")
        self.a = a
        self.b = b
        self._delay = delay
        self.name = name or f"{a.name}<->{b.name}"
        rate = (
            rate_override
            if rate_override is not None
            else min(a.data_rate(), b.data_rate())
        )
        ctx = a.machine.ctx
        self._nominal_rate = rate
        self._failed = False
        self._ab = FluidResource(ctx.fluid, rate, f"{self.name}/a->b")
        self._ba = FluidResource(ctx.fluid, rate, f"{self.name}/b->a")
        self._ab.kind = "link"  # type: ignore[attr-defined]
        self._ba.kind = "link"  # type: ignore[attr-defined]
        a.link = self
        b.link = self
        if ctx.faults is not None:
            ctx.faults.add_link(self)

    @property
    def delay(self) -> float:
        """One-way propagation delay in seconds (fixed at cabling: TCP
        controllers park on the assumption that the RTT never changes)."""
        return self._delay

    @property
    def rate(self) -> float:
        """Current usable rate in bytes/second."""
        return self._ab.capacity

    def direction(self, src: Nic) -> FluidResource:
        """The fluid resource carrying traffic transmitted by *src*."""
        if src is self.a:
            return self._ab
        if src is self.b:
            return self._ba
        raise ValueError(f"{src!r} is not an endpoint of {self.name!r}")

    def peer(self, nic: Nic) -> Nic:
        """The NIC on the other end."""
        if nic is self.a:
            return self.b
        if nic is self.b:
            return self.a
        raise ValueError(f"{nic!r} is not an endpoint of {self.name!r}")

    @property
    def rtt(self) -> float:
        """Round-trip propagation time."""
        return 2.0 * self.delay

    # -- fault injection ---------------------------------------------------------
    @property
    def failed(self) -> bool:
        """True while the link is down."""
        return self._failed

    def _set_rate(self, rate: float) -> None:
        # set_capacity settles the scheduler before mutating and
        # rebalances after, so every transition closes a rate epoch.
        self._ab.set_capacity(rate)
        self._ba.set_capacity(rate)

    def fail(self) -> None:
        """Take the link down (cable pull / port flap); idempotent.

        In-flight fluid traffic stalls at zero rate; flows resume when
        :meth:`restore` brings the link back.
        """
        if self._failed:
            return
        self._failed = True
        self._set_rate(0.0)

    def restore(self) -> None:
        """Bring the link back up at its nominal rate."""
        self._failed = False
        self._set_rate(self._nominal_rate)

    def __repr__(self) -> str:
        return f"<Link {self.name!r} rate={self.rate:.3g} B/s delay={self.delay:g}s>"


def connect(a: Nic, b: Nic, delay: float = 83e-6, name: str = "") -> Link:
    """Cable two NICs together (LAN default delay gives the paper's
    0.166 ms RTT)."""
    return Link(a, b, delay=delay, name=name)


class Switch:
    """A non-blocking switch with an optional backplane capacity bound.

    The paper's Mellanox FDR switch is non-blocking for two links; the
    backplane resource exists so over-subscription scenarios can be
    modelled (set ``backplane`` lower than the sum of port rates).
    """

    def __init__(self, ctx, name: str, backplane: Optional[float] = None):
        self.ctx = ctx
        self.name = name
        self.links: list[Link] = []
        self.backplane: Optional[FluidResource] = None
        if backplane is not None:
            check_non_negative("backplane", backplane)
            self.backplane = FluidResource(ctx.fluid, backplane, f"{name}/backplane")
            self.backplane.kind = "link"  # type: ignore[attr-defined]

    def attach(self, link: Link) -> None:
        """Register a link with this switch."""
        self.links.append(link)

    def extra_path(self) -> list[tuple[FluidResource, float]]:
        """Resources a flow through this switch must additionally cross."""
        if self.backplane is None:
            return []
        return [(self.backplane, 1.0)]
