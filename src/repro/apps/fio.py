"""fio: the flexible I/O tester (Axboe), as used in §4.2.

The paper drives the iSER SAN with fio: multiple jobs per LUN, block
sizes from tens of KiB to tens of MiB, five-minute runs, measuring
bandwidth and CPU.  :func:`run_fio` reproduces that harness over any set
of :class:`~repro.storage.blockdev.BlockDevice`\\ s (remote iSER devices,
RAM disks or SSDs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.kernel.numa import NumaPolicy
from repro.kernel.process import SimProcess
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow
from repro.storage.blockdev import BlockDevice
from repro.util.units import to_gbps
from repro.util.validation import check_positive

__all__ = ["FioJob", "FioResult", "run_fio"]


@dataclass(frozen=True)
class FioJob:
    """One fio job file (the knobs the paper sweeps)."""

    rw: str  # "read" | "write"
    block_size: int
    numjobs: int = 4  # threads per device ("four threads for each LUN")
    queue_depth: int = 1
    runtime: float = 60.0
    bind_node: Optional[int] = None  # numactl for the fio process

    def __post_init__(self):
        if self.rw not in ("read", "write"):
            raise ValueError(f"rw must be 'read' or 'write', got {self.rw!r}")
        check_positive("block_size", self.block_size)
        check_positive("numjobs", self.numjobs)
        check_positive("runtime", self.runtime)


@dataclass
class FioResult:
    """Aggregate bandwidth/CPU outcome of one fio run."""

    total_bytes: float
    runtime: float
    n_flows: int
    job: FioJob
    accounting: CpuAccounting
    per_device_bytes: Dict[str, float] = field(default_factory=dict)

    @property
    def bandwidth(self) -> float:
        """Mean payload rate over the run (bytes/s)."""
        return self.total_bytes / self.runtime

    @property
    def bandwidth_gbps(self) -> float:
        """Mean payload rate in gigabits/second."""
        return to_gbps(self.bandwidth)

    @property
    def iops(self) -> float:
        """I/O operations per second at the job's block size."""
        return self.bandwidth / self.job.block_size

    def completion_latency(self) -> float:
        """Mean per-I/O completion latency implied by the run.

        With ``numjobs`` synchronous threads per device sustaining the
        measured bandwidth, Little's law gives
        ``latency = outstanding_ops / IOPS``.
        """
        if self.bandwidth <= 0:
            return float("inf")
        outstanding = self.n_flows * self.job.queue_depth
        return outstanding / self.iops


def run_fio(
    ctx: Context,
    machine: Machine,
    devices: Sequence[BlockDevice],
    job: FioJob,
) -> FioResult:
    """Run *job* against every device simultaneously (one fio process per
    device, ``numjobs`` threads each) and report aggregate results."""
    if not devices:
        raise ValueError("run_fio needs at least one device")
    is_write = job.rw == "write"
    flows: List[FluidFlow] = []
    threads = []
    per_device: Dict[str, float] = {}

    for di, dev in enumerate(devices):
        if job.bind_node is not None:
            policy = NumaPolicy.bind(job.bind_node)
        elif hasattr(dev, "lun"):
            # the paper binds each fio process near its LUN's link
            policy = NumaPolicy.bind(dev.lun.link_index % machine.n_nodes)
        else:
            policy = NumaPolicy.default()
        proc = SimProcess(machine, f"fio{di}", cpu_policy=policy, mem_policy=policy)
        if hasattr(dev, "threads_per_lun"):
            dev.threads_per_lun = job.numjobs
        if hasattr(dev, "queue_depth"):
            dev.queue_depth = job.queue_depth
        for k in range(job.numjobs):
            t = proc.spawn_thread()
            threads.append(t)
            spec = dev.bulk_path(is_write, t, job.block_size)
            flow = FluidFlow(
                spec.path,
                size=None,
                cap=spec.cap,
                charges=spec.charges,
                name=f"fio-{dev.name}-j{k}",
            )
            ctx.fluid.start(flow)
            flows.append(flow)

    t0 = ctx.sim.now
    ctx.sim.run(until=t0 + job.runtime)
    ctx.fluid.settle()

    total = 0.0
    for dev, dev_flows in zip(
        devices, [flows[i : i + job.numjobs] for i in range(0, len(flows), job.numjobs)]
    ):
        moved = sum(f.transferred for f in dev_flows)
        per_device[dev.name] = moved
        total += moved
    for f in flows:
        ctx.fluid.stop(f)

    ledger = CpuAccounting.total((t.accounting for t in threads), "fio")
    return FioResult(
        total_bytes=total,
        runtime=job.runtime,
        n_flows=len(flows),
        job=job,
        accounting=ledger,
        per_device_bytes=per_device,
    )
