"""Fig. 8: iSER target CPU utilization, default vs NUMA tuning.

Same workload as Fig. 7; the metric is the target host's CPU.  Paper
anchors: the default policy costs ≈**3x** the CPU on writes (coherence
invalidations + remote copies), while the read-side saving is modest.

Fig. 7 measured these runs: :func:`plan` asks for Fig. 7's own cells
(a subset of them in quick mode), so a report or a warm cache runs
each point once for both figures.
"""

from __future__ import annotations

from repro.core.calibration import Calibration
from repro.core.experiments.exp_fig07_iser_bw import BLOCK_SIZES, cells, grid
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks
from repro.util.units import KIB, MIB

__all__ = ["run", "plan", "assemble"]

PAPER_WRITE_CPU_RATIO = 3.0


def _block_sizes(quick: bool) -> tuple[int, ...]:
    return BLOCK_SIZES if not quick else (256 * KIB, 4 * MIB)


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
         ) -> list[SimTask]:
    """Fig. 7's cells at this figure's block sizes."""
    return cells(quick, seed, cal, _block_sizes(quick))


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Build the paper-vs-measured report from the cells' results."""
    block_sizes = _block_sizes(quick)
    table = grid(results, block_sizes)
    runtime = 10.0 if quick else 300.0
    report = ExperimentReport(
        "fig08",
        "Fig. 8 iSER target CPU: default vs NUMA-tuned",
        data_headers=["rw", "block size", "default CPU %", "NUMA CPU %", "ratio"],
    )
    big = max(block_sizes)
    for rw in ("read", "write"):
        for bs in block_sizes:
            d_cpu = 100.0 * table[("default", rw, bs)][1] / runtime
            n_cpu = 100.0 * table[("numa", rw, bs)][1] / runtime
            report.add_row([
                rw, f"{bs // 1024} KiB", round(d_cpu), round(n_cpu),
                f"{d_cpu / max(n_cpu, 1e-9):.2f}x",
            ])

    w_ratio = table[("default", "write", big)][1] / table[("numa", "write", big)][1]
    r_ratio = table[("default", "read", big)][1] / table[("numa", "read", big)][1]
    report.add_check("write CPU ratio (default/tuned)",
                     f"~{PAPER_WRITE_CPU_RATIO:.0f}x", f"{w_ratio:.2f}x",
                     ok=2.2 < w_ratio < 4.0)
    report.add_check("read CPU ratio (default/tuned)", "modest (<2x)",
                     f"{r_ratio:.2f}x", ok=r_ratio < 2.0)
    report.add_check("write penalty exceeds read penalty", "yes",
                     "yes" if w_ratio > r_ratio else "no", ok=w_ratio > r_ratio)
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
