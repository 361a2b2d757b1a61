"""GridFTP-style baseline: TCP data movers with blocking buffered I/O.

The paper attributes GridFTP's 29 Gbps (vs RFTP's 91) to three causes
(§4.3), each modelled explicitly:

1. **TCP stack overhead** — kernel processing + two copies per end
   (the same Fig. 4-calibrated costs as iperf);
2. **single-threaded data movers** — each process alternates between
   blocking file I/O and network sends, so the per-process rate is the
   *harmonic* composition of I/O and network stage rates ("the network
   [is] in an idle state when this thread performs I/O"); running
   multiple processes recovers parallelism at higher CPU cost;
3. **no direct I/O** — file access goes through the page cache, adding
   a copy per byte on each host.

Under fault injection (:mod:`repro.faults`) GridFTP keeps its naive
stall-until-restore behaviour deliberately: a mover whose link dies
blocks in the kernel until the route returns, and nothing reclaims its
share — the baseline contrast for RFTP's multi-rail failover in the
``ext_recovery`` experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.fs.vfs import FileSystem
from repro.hw.nic import Nic
from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.kernel.numa import NumaPolicy
from repro.kernel.pages import place_region
from repro.kernel.process import SimProcess, SimThread
from repro.net.tcp import TcpConnection, TcpEndpoint
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow
from repro.sim.trace import ThroughputProbe, TimeSeries
from repro.util.units import to_gbps
from repro.util.validation import check_positive

__all__ = ["GridFtp", "GridFtpResult"]


def _harmonic(*rates: Optional[float]) -> float:
    inv = 0.0
    for r in rates:
        if r is None or math.isinf(r):
            continue
        if r <= 0:
            return 0.0
        inv += 1.0 / r
    return 1.0 / inv if inv > 0 else math.inf


@dataclass
class GridFtpResult:
    """Aggregate outcome of one GridFTP run."""
    total_bytes: float
    duration: float
    n_processes: int
    sender_accounting: CpuAccounting
    receiver_accounting: CpuAccounting
    series: Optional[TimeSeries] = None

    @property
    def goodput(self) -> float:
        """Mean payload rate over the run (bytes/s)."""
        return self.total_bytes / self.duration

    @property
    def goodput_gbps(self) -> float:
        """Mean payload rate in gigabits/second."""
        return to_gbps(self.goodput)


class GridFtp:
    """A globus-url-copy-style transfer between two cabled hosts."""

    def __init__(
        self,
        ctx: Context,
        sender: Machine,
        receiver: Machine,
        *,
        source_fs,
        sink_fs,
        processes: Optional[int] = None,
        block_size: Optional[int] = None,
        numa_tuned: bool = True,
        name: str = "gridftp",
    ):
        self.ctx = ctx
        self.sender = sender
        self.receiver = receiver
        self.source_fs = source_fs
        self.sink_fs = sink_fs
        self.processes = (
            processes if processes is not None else ctx.cal.gridftp_processes
        )
        check_positive("processes", self.processes)
        self.block_size = (
            block_size if block_size is not None else int(ctx.cal.gridftp_io_block_bytes)
        )
        self.numa_tuned = numa_tuned
        self.name = name
        self.flows: List[FluidFlow] = []
        self.connections: List[TcpConnection] = []
        self._send_threads: List[SimThread] = []
        self._recv_threads: List[SimThread] = []

    def _nics(self, machine: Machine) -> List[Nic]:
        return [
            s.device
            for s in machine.pcie_slots
            if s.device is not None and s.device.kind.is_roce
            and s.device.link is not None
        ]

    @staticmethod
    def _fs_for(spec, index: int) -> FileSystem:
        if isinstance(spec, list):
            if not spec:
                raise ValueError("empty filesystem list")
            return spec[index % len(spec)]
        return spec

    def start(self) -> List[FluidFlow]:
        """Start the activity."""
        s_nics = self._nics(self.sender)
        if not s_nics:
            raise ValueError(f"{self.sender.name!r} has no cabled RoCE NICs")
        for pi in range(self.processes):
            sn = s_nics[pi % len(s_nics)]
            rn = sn.link.peer(sn)
            policy_s = NumaPolicy.bind(sn.node) if self.numa_tuned else NumaPolicy.default()
            policy_r = NumaPolicy.bind(rn.node) if self.numa_tuned else NumaPolicy.default()
            sproc = SimProcess(self.sender, f"{self.name}-s{pi}",
                               cpu_policy=policy_s, mem_policy=policy_s)
            rproc = SimProcess(self.receiver, f"{self.name}-r{pi}",
                               cpu_policy=policy_r, mem_policy=policy_r)
            st = sproc.spawn_thread()
            rt = rproc.spawn_thread()
            self._send_threads.append(st)
            self._recv_threads.append(rt)

            sbuf = place_region(self.block_size, sproc.mem_policy,
                                self.sender.n_nodes, touch_node=st.home_node())
            rbuf = place_region(self.block_size, rproc.mem_policy,
                                self.receiver.n_nodes, touch_node=rt.home_node())
            conn = TcpConnection(
                self.ctx,
                f"{self.name}-p{pi}",
                TcpEndpoint(st, sn, sbuf),
                TcpEndpoint(rt, rn, rbuf),
                tuned_irq=self.numa_tuned,
            )
            self.connections.append(conn)
            tcp_spec = conn.build_path()

            # buffered (page-cache) file I/O, accounted serially with TCP
            # on the same single thread -- no pipelining.
            src_fs = self._fs_for(self.source_fs, pi)
            dst_fs = self._fs_for(self.sink_fs, pi)
            fs_read = src_fs.streaming_spec(
                False, st, self.block_size, direct=False,
                n_streams=self.processes, include_device=False,
            )
            fs_write = dst_fs.streaming_spec(
                True, rt, self.block_size, direct=False,
                n_streams=self.processes, include_device=False,
            )
            dev_read = src_fs.device.bulk_path(False, st, self.block_size)
            dev_write = dst_fs.device.bulk_path(True, rt, self.block_size)

            # single-threaded duty cycle: network idles during file I/O
            serial_cap = _harmonic(
                tcp_spec.cap, fs_read.cap, fs_write.cap, dev_read.cap, dev_write.cap
            )
            path = (
                tcp_spec.path + fs_read.path + fs_write.path
                + dev_read.path + dev_write.path
            )
            charges = (
                tcp_spec.charges + fs_read.charges + fs_write.charges
                + dev_read.charges + dev_write.charges
            )
            flow = FluidFlow(path, size=None, cap=serial_cap, charges=charges,
                             name=conn.name)
            self.ctx.fluid.start(flow)
            self.flows.append(flow)
        return self.flows

    def transferred(self) -> float:
        """Total bytes moved so far across all streams.

        Kept allocation-free (plain loop, no ``sum()`` generator): this
        bound method is the sampler counter for the throughput probe.
        """
        total = 0.0
        for f in self.flows:
            total += f.transferred
        return total

    def run(self, duration: float, sample_interval: float = 1.0) -> GridFtpResult:
        """Run the experiment; returns the paper-vs-measured report."""
        if not self.flows:
            self.start()
        probe = ThroughputProbe(
            self.ctx.sim,
            counter=self.transferred,
            interval=sample_interval,
            name=f"{self.name}/throughput",
        )
        t0 = self.ctx.sim.now
        self.ctx.sim.run(until=t0 + duration)
        self.ctx.fluid.settle()
        series = probe.stop()
        total = self.transferred()
        for f in self.flows:
            if f._active:
                self.ctx.fluid.stop(f)

        return GridFtpResult(
            total_bytes=total,
            duration=duration,
            n_processes=self.processes,
            sender_accounting=CpuAccounting.total(
                (t.accounting for t in self._send_threads), "gridftp-snd"),
            receiver_accounting=CpuAccounting.total(
                (t.accounting for t in self._recv_threads), "gridftp-rcv"),
            series=series,
        )
