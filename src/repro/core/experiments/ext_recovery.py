"""E5: goodput under faults — RFTP multi-rail recovery vs GridFTP stall.

The paper's WAN claims assume a fabric that misbehaves (link flaps,
dead ports) but its evaluation never kills a NIC mid-transfer.  This
extension does, on a credit-bound three-rail metro testbed
(:mod:`repro.core.experiments.fault_legs`):

* **Permanent NIC failure** — RFTP detects the dead rail within the
  block-ack timeout, retransmits the lost credit windows, reclaims the
  dead streams' credits for the surviving rails (multi-rail failover),
  and recovers >= 90% of pre-fault goodput within a bounded window.
  GridFTP's movers on the dead link block forever: aggregate goodput
  drops by roughly the dead link's share and never comes back.
* **Transient flap** — RFTP additionally re-establishes the QPs through
  the connection manager (capped exponential backoff) once the link
  returns, restoring full rail redundancy; the reconnect counter and
  recovery time land in the report.

Scheduled through :class:`~repro.exec.task.SimTask` legs; the fault
plan is a leg parameter, so cached results never mix fault
configurations.
"""

from __future__ import annotations

from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks

__all__ = ["run", "plan", "assemble"]

_LEGS = "repro.core.experiments.fault_legs"


def _shape(quick: bool):
    duration = 30.0 if quick else 120.0
    fault_at = 10.0 if quick else 40.0
    flap = 3.0 if quick else 10.0
    interval = 0.5 if quick else 1.0
    return duration, fault_at, flap, interval


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None
         ) -> list[SimTask]:
    """The experiment as independent tasks (three fault scenarios)."""
    duration, fault_at, flap, interval = _shape(quick)
    dead_nic = f"link-down@link:1,at={fault_at}"  # permanent
    flap_spec = f"link-down@link:1,at={fault_at},duration={flap}"
    common = {"duration": duration, "fault_at": fault_at,
              "sample_interval": interval}
    return [
        SimTask(f"{_LEGS}:recovery_leg",
                {"tool": "rftp", "faults": dead_nic, **common},
                seed=seed, cal=cal, label="recovery/rftp-dead-nic"),
        SimTask(f"{_LEGS}:recovery_leg",
                {"tool": "gridftp", "faults": dead_nic, **common},
                seed=seed + 1, cal=cal, label="recovery/gridftp-dead-nic"),
        SimTask(f"{_LEGS}:recovery_leg",
                {"tool": "rftp", "faults": flap_spec, **common},
                seed=seed + 2, cal=cal, label="recovery/rftp-flap"),
    ]


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Fold the three scenarios into the recovery report."""
    rftp, gridftp, flap = results
    duration, fault_at, flap_s, _ = _shape(quick)
    report = ExperimentReport(
        "ext-recovery",
        "E5: goodput under faults — RFTP recovery/failover vs GridFTP "
        "(1 of 3 NICs dies mid-transfer)",
        data_headers=["scenario", "pre Gbps", "post Gbps", "post/pre",
                      "recover s", "retx MB", "reconnects"],
    )

    for label, leg in (("RFTP, NIC down (permanent)", rftp),
                       ("GridFTP, NIC down (permanent)", gridftp),
                       (f"RFTP, {flap_s:.0f} s flap", flap)):
        report.add_row([
            label,
            round(leg["pre_gbps"], 1),
            round(leg["post_gbps"], 1),
            f"{leg['post_over_pre']:.0%}",
            ("—" if leg["recovery_s"] == float("inf")
             else round(leg["recovery_s"], 1)),
            round(leg["retransmitted_bytes"] / 1e6, 1),
            leg["reconnects"],
        ])

    report.add_check(
        "RFTP goodput recovered after NIC loss", ">= 90% of pre-fault",
        f"{rftp['post_over_pre']:.0%}", ok=rftp["post_over_pre"] >= 0.90)
    report.add_check(
        "RFTP failover window", "bounded (< 5 s)",
        f"{rftp['recovery_s']:.1f} s", ok=rftp["recovery_s"] < 5.0)
    report.add_check(
        "RFTP retransmitted the lost credit windows", "> 0 bytes",
        f"{rftp['retransmitted_bytes'] / 1e6:.1f} MB",
        ok=rftp["retransmitted_bytes"] > 0 and rftp["streams_failed"] > 0)
    report.add_check(
        "GridFTP stalls (no credit reclamation)", "~2/3 of pre-fault",
        f"{gridftp['post_over_pre']:.0%}",
        ok=0.55 < gridftp["post_over_pre"] < 0.80)
    ratio = (rftp["post_gbps"] / gridftp["post_gbps"]
             if gridftp["post_gbps"] else float("inf"))
    report.add_check(
        "RFTP vs GridFTP goodput under fault", ">= 1.2x", f"{ratio:.1f}x",
        ok=ratio >= 1.2)
    report.add_check(
        "flap: CM reconnect restores rail redundancy", ">= 1 reconnect",
        flap["reconnects"], ok=flap["reconnects"] >= 1)
    report.add_check(
        "flap: reconnect latency", "outage + capped backoff",
        f"{flap['recovery_seconds']:.1f} s",
        ok=0.0 < flap["recovery_seconds"] < flap_s + 2.0)

    report.notes.append(
        "RFTP under permanent NIC loss (Gbps over the run): "
        + rftp["sparkline"])
    report.notes.append("GridFTP under the same fault: " + gridftp["sparkline"])
    report.notes.append(
        "Failover recovers goodput while the link is still dark (surviving "
        "rails absorb the dead rails' credit budget); the flap scenario then "
        "re-establishes the QPs once the link returns. GridFTP's movers "
        "block in the kernel and nothing reclaims their share.")
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None
        ) -> ExperimentReport:
    """Run the experiment; returns the paper-vs-measured report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
