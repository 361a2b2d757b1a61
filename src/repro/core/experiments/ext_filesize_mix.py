"""Extension E3: the lots-of-small-files penalty.

The paper's corpus — six 50 GB LUN-backed files — is the best case for a
bulk mover.  This extension measures what happens to RFTP when the same
byte volume arrives as many small files: every file pays fixed control
round trips (request, completion/digest), which large files amortize.

Method: the per-file overhead is *measured* from the event-level
transfer engine (two file sizes, solve the affine model), then the
validated analytic model projects completion time for three corpus
shapes of equal total volume, with and without control-phase pipelining.
"""

from __future__ import annotations

import numpy as np

from repro.apps.rftp.dataset import effective_bandwidth, synth_dataset
from repro.apps.rftp.filetransfer import rftp_send_file
from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.fs.vfs import O_RDWR
from repro.fs.xfs import XfsFileSystem
from repro.hw.nic import Nic, NicKind
from repro.hw.topology import Machine
from repro.kernel.numa import NumaPolicy
from repro.kernel.pages import place_region
from repro.net.link import connect
from repro.sim.context import Context
from repro.storage.blockdev import RamDisk
from repro.util.units import GB, MIB, to_gbps

__all__ = ["run"]


def _measure_per_file_overhead(seed: int, cal: Calibration | None
                               ) -> tuple[float, float]:
    """Transfer a large and a small file event-level; solve t = s/B + c."""
    ctx = Context.create(seed=seed, cal=cal)
    a = Machine(ctx, "a", pcie_sockets=(0,))
    b = Machine(ctx, "b", pcie_sockets=(0,))
    na = Nic(a, a.pcie_slots[0], NicKind.ROCE_QDR)
    nb = Nic(b, b.pcie_slots[0], NicKind.ROCE_QDR)
    connect(na, nb)
    src = XfsFileSystem(ctx, RamDisk(ctx, "s",
                                     place_region(64 * MIB, NumaPolicy.bind(0), 2),
                                     store_data=True))
    dst = XfsFileSystem(ctx, RamDisk(ctx, "d",
                                     place_region(64 * MIB, NumaPolicy.bind(0), 2),
                                     store_data=True))
    times = {}
    for name, size in (("big.dat", 16 * MIB), ("small.dat", 1 * MIB)):
        src.create(name, size)
        ctx.sim.run(until=src.open(name, O_RDWR).write(size))
        t0 = ctx.sim.now
        done = rftp_send_file(ctx, source_fs=src, sink_fs=dst,
                              src_path=name, dst_path=name,
                              client_nic=na, server_nic=nb,
                              block_size=1 * MIB, credits=8)
        ctx.sim.run(until=done)
        times[size] = ctx.sim.now - t0
    s_big, s_small = 16 * MIB, 1 * MIB
    bandwidth = (s_big - s_small) / (times[s_big] - times[s_small])
    overhead = times[s_small] - s_small / bandwidth
    return bandwidth, max(overhead, 0.0)


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    total = 2 * GB if quick else 300 * GB
    report = ExperimentReport(
        "ext-filesize-mix",
        "E3 (extension): RFTP completion time vs file-size mix "
        "(equal total volume)",
        data_headers=["corpus", "files", "mean size", "goodput (Gbps)",
                      "goodput w/ pipelining (Gbps)"],
    )
    bandwidth, overhead = _measure_per_file_overhead(seed, cal)
    report.add_check("measured per-file control overhead", "O(RTTs), < 5 ms",
                     f"{overhead * 1e6:.0f} us",
                     ok=0 < overhead < 5e-3)

    rng = np.random.default_rng(seed)
    rates = {}
    for kind in ("bulk", "lognormal", "small"):
        ds = synth_dataset(rng, total, kind)
        plain = effective_bandwidth(ds, bandwidth, overhead,
                                    pipeline_depth=1)
        pipelined = effective_bandwidth(ds, bandwidth, overhead,
                                        pipeline_depth=8)
        rates[kind] = (plain, pipelined)
        report.add_row([
            kind, ds.n_files, f"{ds.mean_size / MIB:.2f} MiB",
            round(to_gbps(plain), 2), round(to_gbps(pipelined), 2),
        ])

    bulk_plain = rates["bulk"][0]
    small_plain = rates["small"][0]
    small_piped = rates["small"][1]
    report.add_check("bulk corpus reaches the wire rate", ">95% of link",
                     f"{bulk_plain / bandwidth:.0%}",
                     ok=bulk_plain > 0.95 * bandwidth)
    report.add_check("small-file corpus collapses", ">3x slower than bulk",
                     f"{bulk_plain / small_plain:.1f}x",
                     ok=bulk_plain > 3 * small_plain)
    report.add_check("control-phase pipelining recovers most of the gap",
                     ">=75% of bulk goodput",
                     f"{small_piped / bulk_plain:.0%}",
                     ok=small_piped > 0.75 * bulk_plain)
    report.notes.append(
        "The per-file overhead is measured from the event-level engine "
        "(two sizes, affine fit), then projected analytically; the paper's "
        "50 GB files sit deep in the flat region of this curve."
    )
    return report
