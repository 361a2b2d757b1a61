"""Fig. 4: CPU cost breakdown of RFTP vs iperf at 40 Gbps.

The paper's five-minute test: source loads from ``/dev/zero``, pushes
over one 40 Gbps RoCE link, sink dumps to ``/dev/null``.  Both tools hit
39 Gbps; the CPU bill differs wildly:

* RFTP/RDMA: **122%** total, of which user protocol **56%**, copies 0%;
* iperf/TCP: **642%** total, kernel protocol **311%**, copies **213%**;
* loading from /dev/zero is ~**70%** in both cases, offload <1%.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.iperf import run_iperf
from repro.apps.rftp.transfer import RftpConfig, RftpTransfer
from repro.core.breakdown import fig4_categories
from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.hw.nic import Nic, NicKind
from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.net.link import connect
from repro.net.topology import LAN_ROCE_DELAY
from repro.sim.context import Context

__all__ = ["run"]

PAPER = {
    "rftp_total": 122.0,
    "rftp_user": 56.0,
    "tcp_total": 642.0,
    "tcp_kernel": 311.0,
    "tcp_copy": 213.0,
    "load": 70.0,
}


def _single_link_pair(ctx: Context):
    a = Machine(ctx, "src", pcie_sockets=(0,))
    b = Machine(ctx, "dst", pcie_sockets=(0,))
    na = Nic(a, a.pcie_slots[0], NicKind.ROCE_QDR)
    nb = Nic(b, b.pcie_slots[0], NicKind.ROCE_QDR)
    connect(na, nb, delay=LAN_ROCE_DELAY)
    return a, b


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    duration = 20.0 if quick else 300.0
    report = ExperimentReport(
        "fig04",
        "Fig. 4 CPU cost of RFTP (RDMA) vs iperf (TCP) at ~39 Gbps",
        data_headers=["tool", "Gbps", "category", "CPU %"],
    )

    # ---- RFTP: /dev/zero -> link -> /dev/null --------------------------------
    ctx = Context.create(seed=seed, cal=cal)
    a, b = _single_link_pair(ctx)
    xfer = RftpTransfer(
        ctx, a, b, source="zero", sink="null",
        config=RftpConfig(streams_per_link=2, numa_tuned=True),
        name="rftp-fig4",
    )
    res = xfer.run(duration)
    rftp_gbps = res.goodput_gbps
    merged = CpuAccounting.total(
        (res.sender_accounting, res.receiver_accounting), "rftp")
    rftp_cats: Dict[str, float] = fig4_categories(merged, duration)
    rftp_total = sum(rftp_cats.values())
    for cat, pct in sorted(rftp_cats.items(), key=lambda kv: -kv[1]):
        if pct >= 0.5:
            report.add_row(["RFTP", round(rftp_gbps, 1), cat, round(pct, 1)])

    # ---- iperf: same path over TCP -------------------------------------------
    ctx2 = Context.create(seed=seed + 1, cal=cal)
    a2, b2 = _single_link_pair(ctx2)
    ires = run_iperf(
        ctx2, a2, b2, duration=duration, streams_per_link=4,
        bidirectional=False, numa_tuned=True,
    )
    tcp_gbps = ires.aggregate_gbps
    # add the /dev/zero load cost iperf itself pays at the source
    load_pct = 100.0 * ires.aggregate_rate / ctx2.cal.dev_zero_fill_rate
    tcp_cats = fig4_categories(ires.accounting, duration)
    tcp_cats["data loading"] = tcp_cats.get("data loading", 0.0) + load_pct
    tcp_total = sum(tcp_cats.values())
    for cat, pct in sorted(tcp_cats.items(), key=lambda kv: -kv[1]):
        if pct >= 0.5:
            report.add_row(["iperf/TCP", round(tcp_gbps, 1), cat, round(pct, 1)])

    # ---- checks -----------------------------------------------------------------
    report.add_check("RFTP rate (Gbps)", 39, round(rftp_gbps, 1),
                     ok=35 < rftp_gbps < 41)
    report.add_check("TCP rate (Gbps)", 39, round(tcp_gbps, 1),
                     ok=35 < tcp_gbps < 41)
    report.add_check("RFTP total CPU %", PAPER["rftp_total"], round(rftp_total),
                     ok=abs(rftp_total - PAPER["rftp_total"]) < 30)
    report.add_check("RFTP user-protocol %", PAPER["rftp_user"],
                     round(rftp_cats.get("user protocol", 0.0)),
                     ok=abs(rftp_cats.get("user protocol", 0.0)
                            - PAPER["rftp_user"]) < 15)
    report.add_check("RFTP copy %", 0, round(rftp_cats.get("data copy", 0.0)),
                     ok=rftp_cats.get("data copy", 0.0) < 1)
    report.add_check("TCP total CPU %", PAPER["tcp_total"], round(tcp_total),
                     ok=abs(tcp_total - PAPER["tcp_total"]) < 130)
    report.add_check("TCP kernel-protocol %", PAPER["tcp_kernel"],
                     round(tcp_cats.get("kernel protocol", 0.0)),
                     ok=abs(tcp_cats.get("kernel protocol", 0.0)
                            - PAPER["tcp_kernel"]) < 60)
    report.add_check("TCP copy %", PAPER["tcp_copy"],
                     round(tcp_cats.get("data copy", 0.0)),
                     ok=abs(tcp_cats.get("data copy", 0.0) - PAPER["tcp_copy"]) < 50)
    report.add_check("TCP/RDMA total-CPU ratio", "5.3x",
                     f"{tcp_total / max(rftp_total, 1e-9):.1f}x",
                     ok=tcp_total > 3 * rftp_total)
    return report
