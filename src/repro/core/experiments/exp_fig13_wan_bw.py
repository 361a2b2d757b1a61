"""Fig. 13: RFTP bandwidth over the 40 Gbps / 95 ms ANI WAN loop.

Memory-to-memory (``/dev/zero`` -> ``/dev/null``) between the two ANI
hosts, sweeping block size and the number of parallel streams.

Paper anchors: with large blocks RFTP fills **97%** of the raw link;
payload efficiency rises with block size (per-block control messages
amortize); more streams lift small-block throughput (credits x block /
RTT is the per-stream ceiling at BDP ≈ 500 MB).

Every (block size, streams) point is its own pair of hosts, so
:func:`plan` makes each one a :class:`~repro.exec.task.SimTask` cell
that keeps what Figs. 13 and 14 read of the run.  Fig. 14 plans the
same cells, so the runner's identity dedup and the result cache
simulate each point once for both figures.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.apps.rftp.transfer import RftpConfig, RftpResult, RftpTransfer
from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks
from repro.hw.presets import wan_host
from repro.net.topology import wire_wan
from repro.sim.context import Context
from repro.util.units import KIB, MIB, to_gbps

__all__ = ["run", "plan", "assemble", "transfer", "cell", "grid", "WanCell",
           "block_sizes", "stream_counts", "BLOCK_SIZES", "STREAM_COUNTS"]

BLOCK_SIZES = (256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB)
STREAM_COUNTS = (1, 2, 4, 8)
PAPER_PEAK_EFFICIENCY = 0.97


class WanCell(NamedTuple):
    """What Figs. 13 and 14 read of one WAN run."""

    goodput: float
    total_bytes: float
    sender_cpu_s: float
    receiver_cpu_s: float


def transfer(block_size: int, streams: int, duration: float, *, seed: int,
             cal: Calibration | None) -> RftpResult:
    """One memory-to-memory RFTP run over the WAN loop."""
    ctx = Context.create(seed=seed, cal=cal)
    nersc = wan_host(ctx, "nersc")
    anl = wan_host(ctx, "anl")
    wire_wan(nersc, anl)
    xfer = RftpTransfer(
        ctx, nersc, anl, source="zero", sink="null",
        config=RftpConfig(block_size=block_size, streams_per_link=streams,
                          numa_tuned=True),
        name=f"wan-{block_size}-{streams}",
    )
    return xfer.run(duration)


def cell(*, seed: int, cal: Calibration | None, block_size: int,
         streams: int, duration: float) -> WanCell:
    """SimTask target: one grid point."""
    res = transfer(block_size, streams, duration, seed=seed, cal=cal)
    return WanCell(res.goodput, res.total_bytes,
                   res.sender_accounting.total_seconds,
                   res.receiver_accounting.total_seconds)


def block_sizes(quick: bool) -> tuple[int, ...]:
    """The swept block sizes."""
    return BLOCK_SIZES if not quick else (256 * KIB, 4 * MIB, 16 * MIB)


def stream_counts(quick: bool) -> tuple[int, ...]:
    """The swept stream counts per link."""
    return STREAM_COUNTS if not quick else (1, 4, 8)


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
         ) -> list[SimTask]:
    """The experiment as one task per (streams, block size) point."""
    duration = 20.0 if quick else 300.0
    return [SimTask(f"{__name__}:cell",
                    {"block_size": bs, "streams": streams,
                     "duration": duration},
                    seed=seed, cal=cal, label=f"wan/{bs // KIB}KiB/{streams}")
            for streams in stream_counts(quick) for bs in block_sizes(quick)]


def grid(results, quick: bool) -> Dict[Tuple[int, int], WanCell]:
    """``{(bs, streams): cell result}`` in :func:`plan` order."""
    keys = [(bs, streams) for streams in stream_counts(quick)
            for bs in block_sizes(quick)]
    return dict(zip(keys, results))


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Build the paper-vs-measured report from the cells' results."""
    table = grid(results, quick)
    sizes, counts = block_sizes(quick), stream_counts(quick)
    report = ExperimentReport(
        "fig13",
        "Fig. 13 RFTP WAN bandwidth vs block size and parallel streams "
        "(40G RoCE, RTT 95 ms)",
        data_headers=["streams"] + [f"{bs // 1024} KiB" for bs in sizes],
    )
    for streams in counts:
        report.add_row(
            [streams]
            + [round(to_gbps(table[(bs, streams)].goodput), 2)
               for bs in sizes]
        )

    raw = 40.0
    peak = max(to_gbps(r.goodput) for r in table.values())
    report.add_check("peak link utilization",
                     f"{PAPER_PEAK_EFFICIENCY:.0%} of 40G",
                     f"{peak / raw:.0%}", ok=peak / raw > 0.90)

    big, small = max(sizes), min(sizes)
    top = max(counts)
    monotone_in_bs = all(
        table[(big, s)].goodput >= table[(small, s)].goodput
        for s in counts
    )
    report.add_check("throughput rises with block size", "yes",
                     "yes" if monotone_in_bs else "no", ok=monotone_in_bs)
    monotone_in_streams = all(
        table[(bs, top)].goodput >= table[(bs, min(counts))].goodput
        for bs in sizes
    )
    report.add_check("throughput rises with streams", "yes",
                     "yes" if monotone_in_streams else "no",
                     ok=monotone_in_streams)
    # per-stream credit ceiling at small block / single stream
    one = table[(small, 1)]
    ctx_cal = cal if cal is not None else Calibration()
    credit_cap = ctx_cal.rftp_credits_per_stream * small / 0.095
    report.add_check(
        "single-stream small-block rate ~= credits*block/RTT",
        f"{to_gbps(credit_cap):.2f} Gbps",
        f"{to_gbps(one.goodput):.2f} Gbps",
        ok=abs(one.goodput - credit_cap) / credit_cap < 0.15,
    )
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
