"""Flow-level TCP with cubic congestion control and host-side costs.

The model captures what the paper measures about TCP (Figs. 4, 9, 10):

* **two copies per end** (user<->kernel), charged as CPU time *and* as
  memory-system traffic (write-allocate makes a copy cost ~3 bytes of
  memory bandwidth per payload byte);
* **kernel protocol processing** per byte (calibrated from Fig. 4's 311%
  CPU at 39 Gbps), scaled by per-packet work (MTU);
* **interrupt/softirq** processing placed on the IRQ node;
* **cubic windows** (RFC 8312): the window only binds on long-RTT paths
  (the ANI WAN's 95 ms / ~500 MB BDP); on the 0.166 ms LAN it is
  irrelevant and host costs dominate — exactly the paper's observation
  that "the bottleneck of an end-to-end path is host processing
  operations, rather than network bandwidth".

Loss is modelled as queue overflow: a loss event fires when the
connection wants to send faster than its fair share *and* the binding
constraint is a network link (host-bound senders are self-clocked by
socket backpressure and do not overflow queues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import metrics
from repro.hw.nic import Nic
from repro.kernel.interrupts import irq_path
from repro.kernel.pages import RegionPlacement
from repro.kernel.process import SimThread
from repro.kernel.work import PathSpec, WorkItem, build_thread_path, merge_paths
from repro.net.link import Link
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow, FluidResource
from repro.sim.trace import TimeSeries

__all__ = ["TcpEndpoint", "TcpConnection", "TcpStats"]

#: Process-wide controller counters (the ``tcp`` registry layer):
#: controller wakeups, controllers parked idle, loss events.
_TOTALS = metrics.counters("tcp", ticks=0, parked=0, losses=0)


@dataclass
class TcpEndpoint:
    """One side of a connection: the thread, its NIC and its user buffer."""

    thread: SimThread
    nic: Nic
    buffer: RegionPlacement

    def buffer_fractions(self) -> Dict[int, float]:
        """NUMA placement of the endpoint's user buffer."""
        return self.buffer.node_fractions()


@dataclass
class TcpStats:
    """Observable connection state.

    ``cwnd_series`` records the window once per controller tick; it
    ends when the controller parks (see :meth:`TcpConnection._idle`),
    after which the window stays at ``cwnd_bytes`` for good.
    """

    loss_events: int = 0
    cwnd_bytes: float = 0.0
    cwnd_series: TimeSeries = field(default_factory=lambda: TimeSeries("cwnd"))


def _weighted_dma(
    nic: Nic, fractions: Dict[int, float], write: bool
) -> list[tuple[FluidResource, float]]:
    """DMA path averaged over a buffer's NUMA placement."""
    out: list[tuple[FluidResource, float]] = []
    for node, f in fractions.items():
        if f <= 0:
            continue
        path = nic.dma_write_path(node) if write else nic.dma_read_path(node)
        out.extend((r, w * f) for r, w in path)
    return out


def _copy_cpu_per_byte(cal, remote_fraction: float) -> float:
    """CPU seconds/byte of one user<->kernel copy given NUMA remoteness."""
    return (
        remote_fraction / cal.memcpy_rate_remote
        + (1.0 - remote_fraction) / cal.memcpy_rate_local
    )


def _remote_fraction(exec_fracs: Dict[int, float], mem_fracs: Dict[int, float]) -> float:
    """Probability an access from *exec_fracs* lands on a different node."""
    return sum(
        ef * mf
        for en, ef in exec_fracs.items()
        for mn, mf in mem_fracs.items()
        if en != mn
    )


class TcpConnection:
    """One TCP connection between two endpoints over a link."""

    def __init__(
        self,
        ctx: Context,
        name: str,
        sender: TcpEndpoint,
        receiver: TcpEndpoint,
        link: Optional[Link] = None,
        mss: Optional[int] = None,
        tuned_irq: bool = False,
        app_load_item: Optional[WorkItem] = None,
        app_offload_item: Optional[WorkItem] = None,
        sender_buffer_cached: bool = False,
    ):
        self.ctx = ctx
        self.name = name
        self.sender = sender
        self.receiver = receiver
        self.link = link if link is not None else sender.nic.link
        if self.link is None:
            raise ValueError("sender NIC is not cabled and no link given")
        self.tuned_irq = tuned_irq
        self.mss = mss if mss is not None else max(536, sender.nic.mtu - 52)
        self.app_load_item = app_load_item
        self.app_offload_item = app_offload_item
        #: iperf's default small buffer stays LLC-resident: the copy's
        #: read side never touches DRAM (the §2.3 cache effect).
        self.sender_buffer_cached = sender_buffer_cached
        self.stats = TcpStats()
        self.flow: Optional[FluidFlow] = None
        self._cwnd = ctx.cal.tcp_init_cwnd_bytes
        self._ssthresh = math.inf
        self._w_max = self._cwnd
        self._epoch_start: Optional[float] = None
        self._ticker = None

    # -- path construction -------------------------------------------------------
    def _sender_spec(self) -> PathSpec:
        cal = self.ctx.cal
        ep = self.sender
        exec_fracs = ep.thread.execution_fractions()
        buf_fracs = ep.buffer_fractions()
        rf = _remote_fraction(exec_fracs, buf_fracs)
        mtu_factor = 9000.0 / ep.nic.mtu

        if self.sender_buffer_cached:
            copy_traffic = (WorkItem.mem_local(cal.tcp_copy_write_traffic),)
            copy_cpu = 1.0 / cal.memcpy_rate_local  # LLC-speed source
        else:
            copy_traffic = (
                # read the (cache-cold) user buffer
                WorkItem.mem(buf_fracs, cal.tcp_copy_read_traffic),
                # write-allocate per-CPU skbs (always execution-local)
                WorkItem.mem_local(cal.tcp_copy_write_traffic),
            )
            copy_cpu = _copy_cpu_per_byte(cal, rf)
        items = [
            WorkItem(
                "user send loop",
                cpu_per_byte=1.0 / cal.tcp_user_rate,
                category="usr_proto",
            ),
            WorkItem(
                "copy user->kernel",
                cpu_per_byte=copy_cpu,
                category="copy",
                mem_traffic=copy_traffic,
            ),
            WorkItem(
                "kernel tcp tx",
                cpu_per_byte=mtu_factor / cal.tcp_kernel_rate,
                category="sys_proto",
            ),
        ]
        if self.app_load_item is not None:
            items.insert(0, self.app_load_item)
        spec = build_thread_path(ep.thread, items)
        # NIC DMA-reads the kernel socket buffer (lives on the exec nodes).
        spec.extend(_weighted_dma(ep.nic, exec_fracs, write=False))
        spec = merge_paths(
            spec,
            irq_path(
                ep.nic, ep.thread.accounting, self.tuned_irq, 2 * cal.tcp_interrupt_rate
            ),
        )
        return spec

    def _receiver_spec(self) -> PathSpec:
        cal = self.ctx.cal
        ep = self.receiver
        exec_fracs = ep.thread.execution_fractions()
        buf_fracs = ep.buffer_fractions()
        rf = _remote_fraction(exec_fracs, buf_fracs)
        mtu_factor = 9000.0 / ep.nic.mtu

        # rx kernel buffers live on the IRQ node (NIC-local when tuned,
        # roaming otherwise).
        irq_fracs = (
            {ep.nic.node: 1.0}
            if self.tuned_irq
            else {n: 1.0 / ep.nic.machine.n_nodes for n in range(ep.nic.machine.n_nodes)}
        )
        items = [
            WorkItem(
                "kernel tcp rx",
                cpu_per_byte=mtu_factor / cal.tcp_kernel_rate,
                category="sys_proto",
            ),
            WorkItem(
                "copy kernel->user",
                cpu_per_byte=_copy_cpu_per_byte(cal, rf),
                category="copy",
                mem_traffic=(
                    # read kernel rx buffers (live on the IRQ node)
                    WorkItem.mem(irq_fracs, cal.tcp_copy_read_traffic),
                    # write-allocate the user buffer
                    WorkItem.mem(buf_fracs, cal.tcp_copy_write_traffic),
                ),
            ),
            WorkItem(
                "user recv loop",
                cpu_per_byte=1.0 / cal.tcp_user_rate,
                category="usr_proto",
            ),
        ]
        if self.app_offload_item is not None:
            items.append(self.app_offload_item)
        spec = build_thread_path(ep.thread, items)
        spec.extend(_weighted_dma(ep.nic, irq_fracs, write=True))
        spec = merge_paths(
            spec,
            irq_path(ep.nic, ep.thread.accounting, self.tuned_irq, cal.tcp_interrupt_rate),
        )
        return spec

    def build_path(self) -> PathSpec:
        """Compose the full fluid path of this connection."""
        spec = merge_paths(self._sender_spec(), self._receiver_spec())
        spec.path.append((self.link.direction(self.sender.nic), 1.0))
        return spec

    # -- lifecycle ------------------------------------------------------------------
    def open(self, size: Optional[float] = None) -> FluidFlow:
        """Start the connection; returns the underlying fluid flow."""
        if self.flow is not None:
            raise RuntimeError(f"connection {self.name!r} already open")
        spec = self.build_path()
        self._serial_cap = spec.cap if spec.cap is not None else math.inf
        rtt = self.rtt
        cap = min(self._serial_cap, self._cwnd / rtt)
        self.flow = FluidFlow(
            spec.path, size=size, cap=cap, charges=spec.charges, name=self.name
        )
        self.ctx.fluid.start(self.flow)
        self._epoch_start = self.ctx.sim.now
        self._ticker = self.ctx.sim.process(self._window_process(), name=f"{self.name}.cc")
        return self.flow

    def close(self) -> float:
        """Stop an open-ended connection; returns bytes transferred."""
        if self.flow is None:
            raise RuntimeError(f"connection {self.name!r} not open")
        if self._ticker is not None and self._ticker.is_alive:
            self._ticker.interrupt("close")
        moved = self.flow.transferred
        if self.flow._active:
            moved = self.ctx.fluid.stop(self.flow)
        return moved

    @property
    def rtt(self) -> float:
        """Round-trip time in seconds."""
        return max(self.link.rtt, 1e-5)

    @property
    def cwnd(self) -> float:
        """Current congestion window in bytes."""
        return self._cwnd

    # -- congestion control ------------------------------------------------------------
    def _cubic_window(self, t_since_epoch: float) -> float:
        """RFC 8312 window in bytes at *t* since the last loss."""
        cal = self.ctx.cal
        w_max_seg = self._w_max / self.mss
        k = (w_max_seg * (1.0 - cal.cubic_beta) / cal.cubic_c) ** (1.0 / 3.0)
        w_seg = cal.cubic_c * (t_since_epoch - k) ** 3 + w_max_seg
        return max(self.mss * 2.0, w_seg * self.mss)

    def _binding_is_link(self) -> bool:
        """True if a saturated network link is what limits this flow."""
        assert self.flow is not None
        for res in self.flow._weights:
            if getattr(res, "kind", None) == "link":
                if res.load >= res.capacity * 0.999:
                    return True
        return False

    def _idle(self) -> bool:
        """True once no later controller tick can change anything.

        Holds when the window sits at the maximum, is no longer the
        binding constraint (it allows at least 1.5x the serial cap and
        2x the link rate) and its next growth step stays clamped at the
        maximum: slow start always does, and the cubic window only grows
        with time.  With the RTT, the serial cap and the calibration
        fixed, every later tick then sees a rate at most the serial cap,
        below 0.98x the window rate, so no loss fires; the window stays
        at the maximum; and the cap stays at the serial cap.
        """
        cal = self.ctx.cal
        if self._cwnd < cal.tcp_max_window_bytes:
            return False
        window_rate = self._cwnd / self.rtt
        if window_rate < 1.5 * self._serial_cap or window_rate < 2.0 * self.link.rate:
            return False
        if self._cwnd < self._ssthresh:
            return True
        t = self.ctx.sim.now - self._epoch_start
        return self._cubic_window(t) >= cal.tcp_max_window_bytes

    def _window_process(self):
        from repro.sim.engine import Interrupt

        sim = self.ctx.sim
        cal = self.ctx.cal
        try:
            while self.flow is not None and self.flow._active:
                rtt = self.rtt
                window_rate = self._cwnd / rtt
                # Adaptive tick: once the window stops being the binding
                # constraint, check only occasionally (keeps LAN runs cheap).
                window_matters = window_rate < 1.5 * self._serial_cap or (
                    window_rate < 2.0 * self.link.rate
                )
                tick = rtt if window_matters else max(rtt, 0.25)
                yield sim.timeout(tick)
                if self.flow is None or not self.flow._active:
                    break
                _TOTALS["ticks"] += 1
                # flush(): the window controller needs *settled* rates,
                # including any rebalance the coalescer deferred this
                # instant (a plain settle under an eager scheduler).
                self.ctx.fluid.flush()
                rate = self.flow.rate
                wants_more = rate < window_rate * 0.98
                if not wants_more and self._binding_is_link():
                    # queue overflow -> multiplicative decrease
                    self.stats.loss_events += 1
                    _TOTALS["losses"] += 1
                    self._w_max = self._cwnd
                    self._cwnd = max(2 * self.mss, self._cwnd * cal.cubic_beta)
                    self._ssthresh = self._cwnd
                    self._epoch_start = sim.now
                elif self._cwnd < self._ssthresh:
                    self._cwnd = min(self._cwnd * 2.0, cal.tcp_max_window_bytes)
                else:
                    epoch = sim.now if self._epoch_start is None else self._epoch_start
                    self._cwnd = min(
                        self._cubic_window(sim.now - epoch), cal.tcp_max_window_bytes
                    )
                self.stats.cwnd_bytes = self._cwnd
                self.stats.cwnd_series.record(sim.now, self._cwnd)
                new_cap = min(self._serial_cap, self._cwnd / rtt)
                if not self.flow._active:
                    break
                if abs(new_cap - (self.flow.cap or 0)) > 1e-6 * new_cap:
                    self.ctx.fluid.set_cap(self.flow, new_cap)
                elif self._idle():
                    # Parked: every later tick would be a no-op.
                    _TOTALS["parked"] += 1
                    return
        except Interrupt:
            return
