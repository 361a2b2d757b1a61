"""E8: fleet availability under failure domains and broker crashes.

The paper's recovery story is a single transfer surviving a link flap;
the fleet question operators actually ask is an *availability* one:
when a ToR cut takes out a whole pod of rails and the control plane
itself crashes mid-stream, what fraction of offered jobs still
complete, at what p99 latency, and how fast does goodput recover?

This extension sweeps correlated ``tor:<pod>`` fault rates over
N-host fabrics (:mod:`repro.service.fabric`) with a fleet-wide broker
crash in the middle, at the **same seed** for a *journaled* broker
(write-ahead job journal, replayed at restart) and an *amnesiac*
baseline (no journal: queued work vanishes, orphaned flows are torn
down, unobserved completions are lost).  An MTTR pair isolates restart
recovery on a crash-only plan, and a determinism leg checks that
correlated domain faults expand identically when the same fabric is
rerun at one seed.

The sweep is fixed per mode: 16 hosts at fault rates 0.5 and 1.0 in
quick mode, 128 and 512 hosts at 0.25, 0.5 and 1.0 at paper scale.
Both are ordinary leg parameters, so they hash into the result-cache
identity.
"""

from __future__ import annotations

from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks

__all__ = ["run", "plan", "assemble", "avail_sizes", "fault_rates"]

_LEGS = "repro.core.experiments.availability_legs"

#: Broker variants compared at each curve point (same seed).
VARIANTS = (True, False)  # journal on / off


def avail_sizes(quick: bool = True) -> tuple[int, ...]:
    """Host counts to sweep."""
    return (16,) if quick else (128, 512)


def fault_rates(quick: bool = True) -> tuple[float, ...]:
    """ToR fault rates (fraction of pods cut) to sweep."""
    return (0.5, 1.0) if quick else (0.25, 0.5, 1.0)


def plan(quick: bool = True, seed: int = 0,
         cal: Calibration | None = None) -> list[SimTask]:
    """Per (hosts, fault rate): journaled and amnesiac legs at the same
    seed; plus the MTTR pair and the rerun-determinism anchor."""
    sizes = avail_sizes(quick)
    rates = fault_rates(quick)
    tasks: list[SimTask] = []
    for i, hosts in enumerate(sizes):
        for rate in rates:
            for journal in VARIANTS:
                tag = "journaled" if journal else "amnesiac"
                tasks.append(SimTask(
                    f"{_LEGS}:availability_leg",
                    {"hosts": hosts, "fault_rate": rate, "journal": journal},
                    seed=seed + i, cal=cal,
                    label=f"avail/{tag}-x{hosts}-r{rate:g}"))
    for journal in VARIANTS:
        tag = "journaled" if journal else "amnesiac"
        tasks.append(SimTask(
            f"{_LEGS}:mttr_leg",
            {"hosts": sizes[0], "journal": journal},
            seed=seed + 57, cal=cal, label=f"avail/mttr-{tag}"))
    tasks.append(SimTask(
        f"{_LEGS}:domain_determinism_leg", {}, seed=seed + 93, cal=cal,
        label="avail/determinism"))
    return tasks


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None) -> ExperimentReport:
    """Fold the legs into the availability report."""
    sizes = avail_sizes(quick)
    rates = fault_rates(quick)
    n_curve = len(sizes) * len(rates) * len(VARIANTS)
    legs = {(leg["hosts"], leg["fault_rate"], leg["journal"]): leg
            for leg in results[:n_curve]}
    mttr = {leg["journal"]: leg for leg in results[n_curve:n_curve + 2]}
    det = results[n_curve + 2]

    report = ExperimentReport(
        "ext-availability",
        "E8: fleet availability under correlated failure domains — "
        "availability, p99 latency and goodput vs ToR fault rate with a "
        "mid-run broker crash, journaled (WAL replay) vs amnesiac "
        "restart, plus MTTR recovery curves",
        data_headers=["hosts", "fault rate", "broker", "availability",
                      "p99 ms", "goodput GB/s", "lost", "replayed",
                      "rescheduled"],
    )
    for hosts in sizes:
        for rate in rates:
            for journal in VARIANTS:
                leg = legs[(hosts, rate, journal)]
                report.add_row([
                    hosts, f"{rate:g}",
                    "journaled" if journal else "amnesiac",
                    f"{leg['availability']:.1%}",
                    round(leg["p99_ms"], 1),
                    round(leg["goodput_Bps"] / 1e9, 2),
                    leg["lost"],
                    leg["replayed"],
                    leg["rescheduled"],
                ])

    # -- the CI availability-smoke gates ----------------------------------
    gaps_ok = all(
        legs[(h, r, True)]["availability"]
        >= legs[(h, r, False)]["availability"]
        for h in sizes for r in rates)
    report.add_check(
        "journaled restart never loses availability vs amnesiac",
        "journaled >= amnesiac at every curve point", gaps_ok, ok=gaps_ok)
    exact = all(
        legs[(h, r, True)]["audit_ok"] and legs[(h, r, True)]["lost"] == 0
        for h in sizes for r in rates)
    report.add_check(
        "journaled byte accounting is exactly-once",
        "audit exact, zero lost jobs", exact, ok=exact)
    conserved = all(leg["conserved"] and leg["audit_ok"]
                    for leg in legs.values())
    report.add_check(
        "job conservation holds through crash + restart (all legs)",
        "submitted == terminal states + active", conserved, ok=conserved)
    mj, ma = mttr[True], mttr[False]
    report.add_check(
        "journaled restart recovers pre-crash goodput",
        ">= 95%", f"{mj['recovery_ratio']:.0%}",
        ok=mj["recovery_ratio"] >= 0.95)
    report.add_check(
        "amnesiac restart loses in-flight bytes the journal preserves",
        "> 0 lost bytes (amnesiac), 0 (journaled)",
        f"{ma['lost_bytes'] / 1e9:.1f} GB vs {mj['lost_bytes'] / 1e9:.1f} GB",
        ok=ma["lost_bytes"] > 0.0 and mj["lost_bytes"] == 0.0)
    report.add_check(
        "correlated domain faults rerun identically",
        "identical per-pod ledgers on a same-seed rerun", det["identical"],
        ok=det["identical"] and det["rescheduled"] > 0)

    report.notes.append(
        f"MTTR at {mj['hosts']} hosts (crash at {mj['crash_at']:.1f} s, "
        f"restart {mj['restart_at'] - mj['crash_at']:.1f} s later): the "
        f"journaled broker replays {mj['replayed']} journal entries, "
        f"re-adopts surviving flows and recovers "
        f"{mj['recovery_ratio']:.0%} of pre-crash goodput "
        f"{mj['mttr_s']:.1f} s after the crash; the amnesiac baseline "
        f"recovers {ma['recovery_ratio']:.0%} after "
        f"{ma['mttr_s']:.1f} s, losing {ma['lost']} jobs "
        f"({ma['lost_bytes'] / 1e9:.1f} GB already moved) and restarting "
        "its pipeline from empty.")
    report.notes.append(
        "Goodput timeline (GB/s per 0.5 s bucket) around the crash — "
        f"journaled {[round(v / 1e9, 1) for v in mj['mttr_curve_Bps']]}, "
        f"amnesiac {[round(v / 1e9, 1) for v in ma['mttr_curve_Bps']]}.")
    report.notes.append(
        "Correlated faults expand per cell from registered topology "
        "(host/tor/power domains), with stagger offsets drawn from each "
        f"cell's own \"faults\" stream: the determinism anchor completed "
        f"{det['completed']} jobs with {det['mismatches']} ledger "
        "mismatches between two same-seed runs.")
    return report


def run(quick: bool = True, seed: int = 0,
        cal: Calibration | None = None) -> ExperimentReport:
    """Run the experiment; returns the availability report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal))
    return assemble(results, quick=quick, seed=seed, cal=cal)
