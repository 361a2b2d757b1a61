"""iperf: the TCP load generator of the §2.3 motivating experiment.

The experiment: two hosts, three 40 Gbps RoCE links, bi-directional
parallel TCP streams for ten minutes.

* With the **default** Linux scheduler: 83.5 Gbps aggregate, with
  ``copy_user_generic_string`` eating ~35% of all CPU cycles.
* With **NUMA tuning** (processes bound so each link's streams run on
  the NIC-local node with local buffers): 91.8 Gbps (+10%).

``cached_buffer=True`` reproduces iperf's *default* small-buffer mode,
where the send buffer stays resident in LLC and the memory read of the
user buffer disappears — the cache effect the authors purposely defeat
by enlarging the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hw.nic import Nic, NicKind
from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.kernel.numa import NumaPolicy
from repro.kernel.pages import place_region
from repro.kernel.process import SimProcess
from repro.net.tcp import TcpConnection, TcpEndpoint
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow
from repro.util.units import to_gbps
from repro.util.validation import check_positive

__all__ = ["IperfResult", "run_iperf"]


@dataclass
class IperfResult:
    """Aggregate outcome of one iperf run."""

    total_bytes: float
    duration: float
    n_streams: int
    accounting: CpuAccounting
    per_direction_bytes: Dict[str, float] = field(default_factory=dict)

    @property
    def aggregate_rate(self) -> float:
        """Sum of all streams' payload rates (bytes/s)."""
        return self.total_bytes / self.duration

    @property
    def aggregate_gbps(self) -> float:
        """Aggregate rate in gigabits/second."""
        return to_gbps(self.aggregate_rate)

    def copy_share(self) -> float:
        """Fraction of all CPU cycles spent in data copies (perf's view)."""
        by_cat = self.accounting.seconds_by_category()
        total = sum(by_cat.values())
        return by_cat.get("copy", 0.0) / total if total else 0.0


def _roce_nics(machine: Machine) -> List[Nic]:
    return [
        s.device
        for s in machine.pcie_slots
        if s.device is not None and s.device.kind is NicKind.ROCE_QDR
    ]


def run_iperf(
    ctx: Context,
    a: Machine,
    b: Machine,
    *,
    duration: float = 60.0,
    streams_per_link: int = 4,
    bidirectional: bool = True,
    numa_tuned: bool = False,
    cached_buffer: bool = False,
    buffer_bytes: int = 1 << 30,
) -> IperfResult:
    """Run iperf between two cabled hosts and return aggregate results.

    ``numa_tuned`` binds each link's sender/receiver processes (and their
    buffers, via first-touch) to the NIC-local NUMA node and steers IRQs
    there; the default leaves everything to the stock scheduler.
    """
    check_positive("duration", duration)
    check_positive("streams_per_link", streams_per_link)
    a_nics, b_nics = _roce_nics(a), _roce_nics(b)
    if len(a_nics) != len(b_nics) or not a_nics:
        raise ValueError("hosts must have matching cabled RoCE NICs")

    connections: List[TcpConnection] = []
    flows: List[FluidFlow] = []
    directions = [("a->b", a, b, a_nics, b_nics)]
    if bidirectional:
        directions.append(("b->a", b, a, b_nics, a_nics))

    home_rr: Dict[int, int] = {}  # per-host round-robin of home nodes

    def _next_home(machine: Machine) -> int:
        idx = home_rr.get(id(machine), 0)
        home_rr[id(machine)] = idx + 1
        return idx % machine.n_nodes

    for dir_name, src, dst, src_nics, dst_nics in directions:
        for li, (sn, dn) in enumerate(zip(src_nics, dst_nics)):
            if numa_tuned:
                s_policy = NumaPolicy.bind(sn.node)
                d_policy = NumaPolicy.bind(dn.node)
            else:
                # long-running untuned processes settle on arbitrary home
                # nodes (NUMA balancing), uncorrelated with NIC locality;
                # the load balancer spreads homes evenly per host
                bias = ctx.cal.numa_balancing_home_fraction
                s_policy = NumaPolicy.biased(_next_home(src), bias)
                d_policy = NumaPolicy.biased(_next_home(dst), bias)
            sproc = SimProcess(src, f"iperf-c-{dir_name}-{li}",
                               cpu_policy=s_policy, mem_policy=s_policy)
            dproc = SimProcess(dst, f"iperf-s-{dir_name}-{li}",
                               cpu_policy=d_policy, mem_policy=d_policy)
            for k in range(streams_per_link):
                st = sproc.spawn_thread()
                dt = dproc.spawn_thread()
                sbuf = place_region(
                    buffer_bytes, sproc.mem_policy, src.n_nodes,
                    touch_node=st.home_node(),
                )
                dbuf = place_region(
                    buffer_bytes, dproc.mem_policy, dst.n_nodes,
                    touch_node=dt.home_node(),
                )
                conn = TcpConnection(
                    ctx,
                    f"iperf-{dir_name}-l{li}s{k}",
                    TcpEndpoint(st, sn, sbuf),
                    TcpEndpoint(dt, dn, dbuf),
                    tuned_irq=numa_tuned,
                    sender_buffer_cached=cached_buffer,
                )
                flows.append(conn.open())
                connections.append(conn)

    t0 = ctx.sim.now
    ctx.sim.run(until=t0 + duration)
    ctx.fluid.settle()

    per_direction: Dict[str, float] = {}
    total = 0.0
    for conn, flow in zip(connections, flows):
        moved = flow.transferred
        total += moved
        key = conn.name.split("-l")[0].replace("iperf-", "")
        per_direction[key] = per_direction.get(key, 0.0) + moved
        conn.close()

    threads = [t for conn in connections
               for t in (conn.sender.thread, conn.receiver.thread)]
    ledger = CpuAccounting.total((t.accounting for t in threads), "iperf")

    return IperfResult(
        total_bytes=total,
        duration=duration,
        n_streams=len(connections),
        accounting=ledger,
        per_direction_bytes=per_direction,
    )
