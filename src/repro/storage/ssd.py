"""Flash SSD with thermal throttling.

Reproduces the paper's §4.1 observation that forced the authors onto a
memory-backed SAN:

    "when applications read or wrote 100 gigabytes data or more
     continuously to the SSD drive, the thermal-throttling technology of
     SSDs proactively took actions to throttle the system's performance
     [...] degraded the I/O's performance to about 500MB/s"

The device is a fluid resource whose capacity drops from the burst rate
to the throttled rate when accumulated *heat* (bytes served above the
sustainable rate) exceeds a budget, and recovers after a cool-down.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.process import SimThread
from repro.kernel.work import PathSpec, WorkItem, build_thread_path
from repro.sim.context import Context
from repro.sim.engine import Event
from repro.sim.fluid import FluidFlow, FluidResource
from repro.storage.blockdev import BlockDevice, IoRequest

__all__ = ["SsdDevice"]


class SsdDevice(BlockDevice):
    """A PCIe flash device (Fusion-IO class) with a thermal model.

    Heat accumulates with every byte served and dissipates at the
    sustainable (throttled) rate.  Above ``thermal_budget`` the firmware
    clamps throughput to the throttled rate until heat falls below half
    the budget (hysteresis), mirroring real drives' saw-tooth behaviour.
    """

    #: thermal-check period (seconds, simulated).
    CHECK_INTERVAL = 1.0

    def __init__(
        self,
        ctx: Context,
        name: str,
        capacity_bytes: int,
        *,
        burst_rate: Optional[float] = None,
        throttled_rate: Optional[float] = None,
        thermal_budget: Optional[float] = None,
    ):
        super().__init__(ctx, name, capacity_bytes)
        cal = ctx.cal
        self.burst_rate = burst_rate if burst_rate is not None else cal.ssd_burst_bandwidth
        self.throttled_rate = (
            throttled_rate if throttled_rate is not None else cal.ssd_throttled_bandwidth
        )
        self.thermal_budget = (
            thermal_budget if thermal_budget is not None else cal.ssd_thermal_budget_bytes
        )
        if self.throttled_rate >= self.burst_rate:
            raise ValueError("throttled rate must be below burst rate")
        self.bandwidth = FluidResource(ctx.fluid, self.burst_rate, f"{name}/flash")
        self.heat = 0.0
        self.throttled = False
        self._served_snapshot = 0.0
        self._served_total = 0.0
        self._last_check = ctx.sim.now
        ctx.sim.process(self._thermal_loop(), name=f"{name}/thermal")

    # -- thermal model ------------------------------------------------------------
    def _record_service(self, nbytes: float) -> None:
        self._served_total += nbytes

    def _thermal_loop(self):
        sim = self.ctx.sim
        while True:
            yield sim.timeout(self.CHECK_INTERVAL)
            self.ctx.fluid.settle()
            elapsed = sim.now - self._last_check
            self._last_check = sim.now
            served = self._served_total - self._served_snapshot
            self._served_snapshot = self._served_total
            # heat grows with service, dissipates at the sustainable rate
            self.heat = max(0.0, self.heat + served - self.throttled_rate * elapsed)
            if not self.throttled and self.heat >= self.thermal_budget:
                self.throttled = True
                self.bandwidth.set_capacity(self.throttled_rate)
                self.ctx.trace.emit("ssd", "thermal throttle engaged", name=self.name)
            elif self.throttled and self.heat <= 0.5 * self.thermal_budget:
                self.throttled = False
                self.bandwidth.set_capacity(self.burst_rate)
                self.ctx.trace.emit("ssd", "thermal throttle released", name=self.name)

    # -- BlockDevice API -------------------------------------------------------------
    class _Meter:
        """Charge target that feeds served bytes back into the heat model."""

        def __init__(self, ssd: "SsdDevice"):
            self.ssd = ssd

        def add(self, amount: float) -> None:
            """Accumulate an amount."""
            self.ssd._record_service(amount)

    def bulk_path(self, is_write: bool, thread: SimThread, block_size: int) -> PathSpec:
        """Fluid path of streaming sequential I/O on this device."""
        cal = self.ctx.cal
        items = [
            WorkItem(
                "nvme submission",
                cpu_per_byte=0.0,
                per_op_cpu=cal.scsi_per_cmd_cpu,
                category="io",
            )
        ]
        spec = build_thread_path(thread, items, op_size=block_size)
        spec.path.append((self.bandwidth, 1.0))
        spec.charges.append((SsdDevice._Meter(self), 1.0))
        return spec

    def submit(self, req: IoRequest, thread: Optional[SimThread] = None) -> Event:
        """Execute one I/O; the returned event fires at completion."""
        self._check(req)
        self._count(req)
        done = self.ctx.sim.event(name=f"{self.name}/io")

        def run():
            path = [(self.bandwidth, 1.0)]
            flow = FluidFlow(
                path,
                size=float(req.length),
                charges=((SsdDevice._Meter(self), 1.0),),
                name=f"{self.name}/io",
            )
            yield self.ctx.fluid.start(flow)
            done.succeed(req)

        self.ctx.sim.process(run(), name=f"{self.name}/io")
        return done
