"""Fig. 7: iSER bandwidth, default scheduling vs NUMA tuning.

fio against the raw iSER block devices: six tmpfs LUNs over two IB FDR
links, four threads per LUN, block sizes from 64 KiB to 16 MiB.

Paper anchors: read gains **+7.6%** from tuning; write gains **+19%**
(block >= 4 MiB); tuned reads are ≈**7.5%** faster than tuned writes
(RDMA WRITE vs RDMA READ); tuned write peak ≈ **94.8 Gbps**.

Every (tuning, rw, block size) point is its own testbed, so :func:`plan`
makes each one a :class:`~repro.exec.task.SimTask` cell.  Fig. 8 reads
the same runs' CPU and plans the same cells, so the runner's identity
dedup and the result cache simulate each point once for both figures.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.apps.fio import FioJob, run_fio
from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks
from repro.hw.presets import backend_lan_host, frontend_lan_host
from repro.net.topology import wire_san
from repro.sim.context import Context
from repro.storage.initiator import IserInitiator
from repro.storage.target import IserTarget
from repro.util.units import GB, KIB, MIB, to_gbps

__all__ = ["run", "plan", "assemble", "cell", "cells", "grid", "BLOCK_SIZES"]

BLOCK_SIZES = (64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB)
PAPER_READ_GAIN = 1.076
PAPER_WRITE_GAIN = 1.19
PAPER_READ_OVER_WRITE = 1.075
PAPER_WRITE_PEAK_GBPS = 94.8


def _build(tuning: str, seed: int, cal: Calibration | None):
    ctx = Context.create(seed=seed, cal=cal)
    front = frontend_lan_host(ctx, "front", with_ib=True)
    back = backend_lan_host(ctx, "back")
    wire_san(ctx, front, back)
    target = IserTarget(ctx, back, tuning=tuning, n_links=2)
    for _ in range(6):
        target.create_lun(2 * GB)
    initiator = IserInitiator(ctx, front, target)
    ctx.sim.run(until=initiator.login_all())
    return ctx, front, target, initiator


def cell(*, seed: int, cal: Calibration | None, tuning: str, rw: str,
         block_size: int, runtime: float) -> Tuple[float, float]:
    """SimTask target: one fio run on a fresh testbed.

    Returns ``(bandwidth_bytes_per_s, target_cpu_seconds)``.
    """
    ctx, front, target, initiator = _build(tuning, seed, cal)
    devices = [initiator.devices[i] for i in sorted(initiator.devices)]
    job = FioJob(rw=rw, block_size=block_size, numjobs=4, runtime=runtime)
    res = run_fio(ctx, front, devices, job)
    return res.bandwidth, target.accounting().total_seconds


def _keys(block_sizes) -> list[Tuple[str, str, int]]:
    return [(tuning, rw, bs) for tuning in ("default", "numa")
            for rw in ("read", "write") for bs in block_sizes]


def cells(quick: bool, seed: int, cal: Calibration | None,
          block_sizes) -> list[SimTask]:
    """The (tuning x rw x block size) grid as tasks, in :func:`grid` order."""
    runtime = 10.0 if quick else 300.0
    return [SimTask(f"{__name__}:cell",
                    {"tuning": tuning, "rw": rw, "block_size": bs,
                     "runtime": runtime},
                    seed=seed, cal=cal, label=f"fio/{tuning}/{rw}/{bs // KIB}KiB")
            for tuning, rw, bs in _keys(block_sizes)]


def grid(results, block_sizes
         ) -> Dict[Tuple[str, str, int], Tuple[float, float]]:
    """``{(tuning, rw, bs): (bandwidth, cpu_seconds)}`` from the cells' results."""
    return dict(zip(_keys(block_sizes), results))


def _block_sizes(quick: bool) -> tuple[int, ...]:
    return BLOCK_SIZES if not quick else (256 * KIB, 4 * MIB, 16 * MIB)


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
         ) -> list[SimTask]:
    """The experiment as one task per grid point."""
    return cells(quick, seed, cal, _block_sizes(quick))


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Build the paper-vs-measured report from the cells' results."""
    block_sizes = _block_sizes(quick)
    table = grid(results, block_sizes)
    report = ExperimentReport(
        "fig07",
        "Fig. 7 iSER bandwidth: default vs NUMA-tuned, read & write",
        data_headers=["rw", "block size", "default Gbps", "NUMA Gbps", "gain"],
    )
    big = max(block_sizes)
    for rw in ("read", "write"):
        for bs in block_sizes:
            d = table[("default", rw, bs)][0]
            n = table[("numa", rw, bs)][0]
            report.add_row([
                rw, f"{bs // 1024} KiB", round(to_gbps(d), 1),
                round(to_gbps(n), 1), f"{n / d:.3f}x",
            ])

    read_gain = table[("numa", "read", big)][0] / table[("default", "read", big)][0]
    write_gain = table[("numa", "write", big)][0] / table[("default", "write", big)][0]
    r_over_w = table[("numa", "read", big)][0] / table[("numa", "write", big)][0]
    write_peak = to_gbps(table[("numa", "write", big)][0])

    report.add_check("read tuning gain", f"{PAPER_READ_GAIN:.3f}x",
                     f"{read_gain:.3f}x", ok=1.02 < read_gain < 1.15)
    report.add_check("write tuning gain (large blocks)", f"{PAPER_WRITE_GAIN:.2f}x",
                     f"{write_gain:.3f}x", ok=1.10 < write_gain < 1.30)
    report.add_check("write gain exceeds read gain", "yes",
                     "yes" if write_gain > read_gain else "no",
                     ok=write_gain > read_gain)
    report.add_check("tuned read/write ratio", f"{PAPER_READ_OVER_WRITE:.3f}x",
                     f"{r_over_w:.3f}x", ok=1.03 < r_over_w < 1.12)
    report.add_check("tuned write peak (Gbps)", PAPER_WRITE_PEAK_GBPS,
                     round(write_peak, 1),
                     ok=abs(write_peak - PAPER_WRITE_PEAK_GBPS) / PAPER_WRITE_PEAK_GBPS < 0.08)
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
