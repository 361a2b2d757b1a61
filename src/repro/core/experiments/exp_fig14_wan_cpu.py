"""Fig. 14: RFTP CPU on the WAN path, sender (a) and receiver (b).

Paper anchor: per-block control-message processing dominates at small
blocks, so CPU utilization *falls* as block size grows (and rises with
stream count at fixed block size).

Fig. 13 measured these runs at the same block sizes and stream counts:
:func:`plan` is its plan, so a report or a warm cache runs each point
once for both figures.
"""

from __future__ import annotations

from repro.core.calibration import Calibration
from repro.core.experiments import exp_fig13_wan_bw as fig13
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks
from repro.util.units import to_gbps

__all__ = ["run", "plan", "assemble"]


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
         ) -> list[SimTask]:
    """Fig. 13's cells."""
    return fig13.plan(quick=quick, seed=seed, cal=cal)


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Build the paper-vs-measured report from the cells' results."""
    block_sizes = fig13.block_sizes(quick)
    stream_counts = fig13.stream_counts(quick)
    duration = 20.0 if quick else 300.0
    grid = fig13.grid(results, quick)
    report = ExperimentReport(
        "fig14",
        "Fig. 14 RFTP WAN CPU utilization (sender / receiver)",
        data_headers=["streams", "block size", "Gbps", "sender CPU %",
                      "receiver CPU %", "CPU% per Gbps"],
    )
    for streams in stream_counts:
        for bs in block_sizes:
            res = grid[(bs, streams)]
            snd = 100.0 * res.sender_cpu_s / duration
            rcv = 100.0 * res.receiver_cpu_s / duration
            gbps = to_gbps(res.goodput)
            report.add_row([
                streams, f"{bs // 1024} KiB", round(gbps, 2), round(snd, 1),
                round(rcv, 1),
                round((snd + rcv) / max(gbps, 1e-9), 1),
            ])

    # normalized CPU cost falls with block size (per-block amortization)
    top = max(stream_counts)
    big, small = max(block_sizes), min(block_sizes)

    def cpu_per_byte(bs):
        res = grid[(bs, top)]
        total = res.sender_cpu_s + res.receiver_cpu_s
        return total / max(res.total_bytes, 1.0)

    falling = cpu_per_byte(big) < cpu_per_byte(small)
    report.add_check("CPU-per-byte falls with block size", "yes",
                     "yes" if falling else "no", ok=falling)
    # sender and receiver costs are of the same order (both zero-copy)
    res = grid[(big, top)]
    snd = res.sender_cpu_s
    rcv = res.receiver_cpu_s
    report.add_check("sender/receiver CPU ratio", "same order",
                     f"{snd / max(rcv, 1e-9):.2f}x",
                     ok=0.3 < snd / max(rcv, 1e-9) < 3.5)
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
