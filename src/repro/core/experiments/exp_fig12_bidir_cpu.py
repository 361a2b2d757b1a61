"""Fig. 12: CPU breakdown for the bi-directional RFTP/GridFTP runs.

Paper anchor: GridFTP's bi-directional CPU roughly doubles while its
throughput gains only 33% — CPU contention is what caps it; RFTP's CPU
stays modest per gigabit.

Runs the same four legs as Fig. 11 (identical tasks — the runner dedups
them within one report run, and the result cache across runs) but reads
the CPU ledgers instead of the throughput gains.
"""

from __future__ import annotations

from repro.core.calibration import Calibration
from repro.core.experiments.exp_fig11_bidir import bidir_plan
from repro.core.metrics import CpuBreakdown
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks

__all__ = ["run", "plan", "assemble"]


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
         ) -> list[SimTask]:
    """The experiment as four independent transfer tasks (= Fig. 11's)."""
    return bidir_plan(quick, seed, cal, "fig12")


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Build the paper-vs-measured report from the legs' results."""
    rftp_uni, rftp_bi, grid_uni, grid_bi = results
    report = ExperimentReport(
        "fig12",
        "Fig. 12 bi-directional CPU breakdown: RFTP vs GridFTP",
        data_headers=["tool", "mode", "Gbps", "usr %", "sys %", "total %"],
    )

    for tool, mode, res in (
        ("RFTP", "uni", rftp_uni),
        ("RFTP", "bidir", rftp_bi),
        ("GridFTP", "uni", grid_uni),
        ("GridFTP", "bidir", grid_bi),
    ):
        cpu = CpuBreakdown(res.sender_cpu.by_category.copy())
        for k, v in res.receiver_cpu.by_category.items():
            cpu.by_category[k] = cpu.get(k) + v
        usr, sys_ = cpu.usr, cpu.sys
        report.add_row([tool, mode, round(res.goodput_gbps, 1),
                        round(usr), round(sys_), round(usr + sys_)])

    grid_cpu_uni = grid_uni.sender_cpu.total + grid_uni.receiver_cpu.total
    grid_cpu_bi = grid_bi.sender_cpu.total + grid_bi.receiver_cpu.total
    rftp_cpu_uni = rftp_uni.sender_cpu.total + rftp_uni.receiver_cpu.total
    rftp_cpu_bi = rftp_bi.sender_cpu.total + rftp_bi.receiver_cpu.total

    report.add_check("GridFTP bidir CPU growth", "~2x",
                     f"{grid_cpu_bi / grid_cpu_uni:.2f}x",
                     ok=1.2 < grid_cpu_bi / grid_cpu_uni < 2.4)
    report.add_check(
        "GridFTP burns more CPU per Gbps than RFTP", ">5x",
        f"{(grid_cpu_bi / grid_bi.goodput_gbps) / (rftp_cpu_bi / rftp_bi.goodput_gbps):.1f}x",
        ok=(grid_cpu_bi / grid_bi.goodput_gbps)
        > 4 * (rftp_cpu_bi / rftp_bi.goodput_gbps),
    )
    report.add_check("RFTP bidir CPU grows with throughput", "yes",
                     f"{rftp_cpu_bi / rftp_cpu_uni:.2f}x",
                     ok=rftp_cpu_bi > rftp_cpu_uni)
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
