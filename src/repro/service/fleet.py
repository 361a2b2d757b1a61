"""The fleet: the rails a transfer broker schedules jobs onto.

A :class:`RailFleet` stands up ``n_hosts`` front-end hosts (the Table 1
IBM X3650 class, three 40 Gbps RoCE adapters spread over both sockets),
each cabled NIC-for-NIC to a matching sink peer — the same pairing the
figure experiments use, scaled out.  Every cabled sender NIC becomes one
:class:`Rail`: the schedulable unit of the control plane, carrying its
socket locality (via :func:`repro.rdma.fabric.rail_locality_map`), its
link, and the set of jobs currently running on it.

Rails participate in fault plans through their links: ``link:<i>``
selectors resolve in fleet cabling order, and the broker registers as a
transfer listener so dead rails trigger job rescheduling (not silent
stalls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.injector import faults_active
from repro.hw.nic import Nic
from repro.hw.presets import frontend_lan_host
from repro.hw.topology import Machine
from repro.net.link import Link, connect
from repro.rdma.fabric import rail_locality_map
from repro.sim.context import Context
from repro.util.validation import check_positive

__all__ = ["Rail", "RailFleet"]

#: LAN cable delay between a front-end host and its sink peer.
LAN_DELAY = 83e-6


@dataclass
class Rail:
    """One schedulable sender NIC: the unit of job placement."""

    index: int
    host: int
    nic: Nic
    peer: Nic
    link: Link
    #: NUMA node the sender NIC hangs off (socket locality).
    node: int
    #: Jobs currently running on this rail (broker-maintained; a dict
    #: used as an insertion-ordered set, so fault-time rescheduling
    #: iterates deterministically).
    jobs: Dict[object, None] = field(default_factory=dict)
    alive: bool = True

    @property
    def rate(self) -> float:
        """Nominal usable data rate of the rail in bytes/second."""
        return self.nic.data_rate()

    @property
    def load(self) -> int:
        """Number of jobs currently placed on the rail."""
        return len(self.jobs)

    def __repr__(self) -> str:
        return (f"<Rail {self.index} host={self.host} node={self.node} "
                f"jobs={self.load} alive={self.alive}>")


class RailFleet:
    """``n_hosts`` front-end hosts, each with its rails cabled and live."""

    def __init__(self, ctx: Context, n_hosts: int = 1, name_prefix: str = ""):
        check_positive("n_hosts", n_hosts)
        self.ctx = ctx
        self.n_hosts = n_hosts
        self.name_prefix = name_prefix
        self.hosts: List[Machine] = []
        self.sinks: List[Machine] = []
        self.rails: List[Rail] = []
        self.rail_by_link: Dict[Link, Rail] = {}
        for h in range(n_hosts):
            # A name prefix keeps multi-pod fabrics' machine and link
            # names distinct (``pod3-svc0`` vs ``pod4-svc0``).
            host = frontend_lan_host(ctx, f"{name_prefix}svc{h}")
            sink = frontend_lan_host(ctx, f"{name_prefix}svc{h}-sink")
            self.hosts.append(host)
            self.sinks.append(sink)
            # Cable same-index slots; locality then comes from the NIC's
            # own socket via the rail-locality query, not slot order.
            pairs = [
                (s.device, d.device)
                for s, d in zip(host.pcie_slots, sink.pcie_slots)
                if s.device is not None and d.device is not None
                and s.device.kind.is_roce
            ]
            for i, (sn, dn) in enumerate(pairs):
                connect(sn, dn, delay=LAN_DELAY,
                        name=f"{name_prefix}svc{h}-rail{i}")
            for node, nics in sorted(rail_locality_map(host).items()):
                for nic in nics:
                    rail = Rail(
                        index=len(self.rails), host=h, nic=nic,
                        peer=nic.link.peer(nic), link=nic.link, node=node,
                    )
                    self.rails.append(rail)
                    self.rail_by_link[nic.link] = rail
        # Each host is a failure domain: ``host:<machine>`` (and the bare
        # index for single-fleet contexts) takes out all its rails at once.
        inj = faults_active(ctx)
        if inj is not None:
            for h in range(n_hosts):
                links = [r.link for r in self.rails if r.host == h]
                inj.register_domain("host", f"{name_prefix}svc{h}", links)
                if not name_prefix:
                    inj.register_domain("host", str(h), links)

    @property
    def total_rate(self) -> float:
        """Aggregate nominal rail bandwidth in bytes/second."""
        return sum(r.rate for r in self.rails)

    def alive_rails(self) -> List[Rail]:
        """Rails currently schedulable, in index order."""
        return [r for r in self.rails if r.alive]

    def local_rails(self, host: int, node: int) -> List[Rail]:
        """The rail-locality query: *host*'s rails on NUMA node *node*."""
        return [r for r in self.rails
                if r.host == host and r.node == node and r.alive]

    def rail_for_link(self, link: Link) -> Optional[Rail]:
        """The rail cabled over *link*, if it belongs to this fleet."""
        return self.rail_by_link.get(link)

    def __repr__(self) -> str:
        return (f"<RailFleet hosts={self.n_hosts} rails={len(self.rails)} "
                f"rate={self.total_rate / 1e9:.1f} GB/s>")
