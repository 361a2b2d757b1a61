"""Process-pool-safe legs for the fleet availability experiment.

Each leg runs one :class:`~repro.service.fabric.FabricSpec` through the
topology-sharded runtime under **its own fault plan**, which replaces
any run-wide ``--faults`` plan: correlated ``tor:<pod>`` cuts generated
deterministically from a fault rate, plus a mid-run broker crash
(``crash@transfer:*``).  The plan string is a pure function of the leg
parameters; every cell's context arms it, and it is part of the leg's
cache identity exactly like a CLI ``--faults`` flag would be.

Three leg families:

* :func:`availability_leg` — the curve point: availability, p99 job
  latency and goodput at one (hosts, fault-rate) coordinate, with a
  journaled or amnesiac broker restart in the middle;
* :func:`mttr_leg` — the recovery story: the fleet goodput timeline
  around a broker crash, bucketed into an MTTR curve, with pre-crash
  vs post-restart goodput and the exactly-once byte audit;
* :func:`domain_determinism_leg` — the rerun check: one fabric under a
  staggered ``power:*`` cascade, run twice at one seed, must produce
  identical per-pod ledgers (each cell draws its stagger offsets from
  its own ``"faults"`` stream).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.calibration import Calibration
from repro.core.experiments.fleet_legs import FIXED_ROUNDS, WAN_TENANTS, _spec
from repro.faults.plan import FaultPlan

__all__ = ["availability_leg", "domain_determinism_leg", "fault_plan_for",
           "mttr_leg"]

#: Window (seconds) for pre-crash / post-restart goodput comparison.
_GOODPUT_WINDOW = 1.0
#: MTTR-curve bucket width in seconds.
_BUCKET_S = 0.5
#: Job stream of the curve and MTTR legs: 1 GiB mean files, enough to
#: saturate the WAN.
RATE_PER_HOST = 3.0
SIZE_MEAN_MIB = 1024.0
#: Curve legs: arrivals stop at ``SERVE_S`` and the fabric drains until
#: ``HORIZON_S``; the broker crashes at ``CRASH_AT`` and restarts
#: ``RESTART_S`` later (the MTTR leg's restart too).
SERVE_S = 4.0
HORIZON_S = 6.0
CRASH_AT = 2.0
RESTART_S = 0.5
#: Each ToR cut keeps its pod dark for ``OUTAGE_S`` seconds, cascading
#: at seeded ``STAGGER`` offsets.
OUTAGE_S = 1.0
STAGGER = 0.05
#: The MTTR leg's longer window around its one crash.
MTTR_SERVE_S = 6.0
MTTR_HORIZON_S = 9.0
MTTR_CRASH_AT = 3.0
#: The determinism leg's small fabric and its horizon.
DOMAIN_PODS = 4
DOMAIN_HOSTS_PER_POD = 2
DOMAIN_HORIZON_S = 4.0


def fault_plan_for(*, n_pods: int, fault_rate: float, serve_s: float,
                   crash_at: float = 0.0) -> str:
    """The deterministic availability plan for one curve point.

    ``fault_rate`` is the fraction of pods whose ToR is cut once during
    the serve window: ``round(rate x n_pods)`` evenly-spaced pods go
    dark for ``OUTAGE_S`` seconds at evenly-spaced times, each cut
    cascading over seeded ``STAGGER`` offsets.  ``crash_at > 0`` adds a
    fleet-wide broker crash restarting after ``RESTART_S``.
    """
    clauses: List[str] = []
    n_cuts = int(round(fault_rate * n_pods))
    for k in range(n_cuts):
        pod = (k * n_pods) // max(1, n_cuts)
        at = 1.0 + (k + 0.5) * (serve_s - 1.0) / max(1, n_cuts)
        clauses.append(
            f"link-down@tor:{pod},at={at:.3f},duration={OUTAGE_S}"
            f",stagger={STAGGER}")
    if crash_at > 0.0:
        clauses.append(f"crash@transfer:*,at={crash_at},duration={RESTART_S}")
    return ";".join(clauses)


def _merge_cells(cells: List[dict], serve_s: float) -> Dict[str, Any]:
    """Fold per-pod ledgers into one availability scorecard."""
    latencies = np.sort(np.concatenate(
        [np.asarray(c["latencies_s"], dtype=float) for c in cells]))
    p50 = p99 = 0.0
    if latencies.size:
        p50, p99 = (float(v) for v in np.percentile(latencies, [50.0, 99.0]))
    active = sum(c["queued"] + c["running"] for c in cells)
    submitted = sum(c["submitted"] for c in cells)
    dropped = sum(c["dropped"] for c in cells)
    completed = sum(c["completed"] for c in cells)
    offered = submitted + dropped
    settled = offered - active
    audits = [c["audit"] for c in cells]
    out: Dict[str, Any] = {
        "submitted": submitted,
        "offered": offered,
        "completed": completed,
        "shed": sum(c["shed"] for c in cells),
        "cancelled": sum(c["cancelled"] for c in cells),
        "failed": sum(c["failed"] for c in cells),
        "lost": sum(c["lost"] for c in cells),
        "lost_bytes": sum(c["lost_bytes"] for c in cells),
        "dropped": dropped,
        "crashes": sum(c["crashes"] for c in cells),
        "replayed": sum(c["replayed"] for c in cells),
        "rescheduled": sum(c["rescheduled"] for c in cells),
        "active_end": active,
        "bytes_completed": sum(c["bytes_completed"] for c in cells),
        "availability": completed / settled if settled > 0 else 1.0,
        "goodput_Bps": sum(c["bytes_completed"] for c in cells) / serve_s,
        "p50_ms": p50 * 1e3,
        "p99_ms": p99 * 1e3,
        "audit_ok": all(
            a["jobs_conserved"] and a["completions_exact"] and a["bytes_exact"]
            for a in audits),
        "unobserved": sum(a["unobserved"] for a in audits),
    }
    out["conserved"] = (
        submitted == completed + out["shed"] + out["cancelled"]
        + out["failed"] + out["lost"] + active)
    return out


def _timeline(cells: List[dict]) -> List[Tuple[float, float]]:
    """All pods' (time, bytes) completion events, time-sorted."""
    events: List[Tuple[float, float]] = []
    for c in cells:
        events.extend((float(t), float(b)) for t, b in c["goodput_timeline"])
    events.sort()
    return events


def _window_goodput(events: List[Tuple[float, float]], lo: float,
                    hi: float) -> float:
    """Completed bytes/s inside ``[lo, hi)``."""
    width = hi - lo
    if width <= 0.0:
        return 0.0
    return sum(b for t, b in events if lo <= t < hi) / width


def availability_leg(*, seed: int, cal: Optional[Calibration], hosts: int,
                     fault_rate: float, journal: bool) -> Dict[str, Any]:
    """One availability curve point: ToR cuts + a broker crash."""
    from repro.service.fabric import run_fabric

    spec = _spec(hosts, rate_per_host=RATE_PER_HOST,
                 size_mean_mib=SIZE_MEAN_MIB, wan_tenants=WAN_TENANTS,
                 serve_s=SERVE_S, horizon_s=HORIZON_S, journal=journal)
    plan = fault_plan_for(
        n_pods=spec.n_pods, fault_rate=fault_rate, serve_s=SERVE_S,
        crash_at=CRASH_AT)
    result = run_fabric(spec, seed=seed, cal=cal, fixed_rounds=FIXED_ROUNDS,
                        faults=FaultPlan.parse(plan))
    out = _merge_cells(result["cells"], SERVE_S)
    out.update(hosts=hosts, fault_rate=fault_rate, journal=journal,
               plan=plan, converged=result["exchange"]["converged"])
    return out


def mttr_leg(*, seed: int, cal: Optional[Calibration], hosts: int,
             journal: bool) -> Dict[str, Any]:
    """The MTTR story: goodput timeline around one broker crash.

    No ToR cuts here — the only fault is the crash, so the timeline
    isolates restart recovery: how fast a journaled broker returns to
    pre-crash goodput versus the amnesiac baseline that must refill
    its pipeline from scratch.
    """
    from repro.service.fabric import run_fabric

    spec = _spec(hosts, rate_per_host=RATE_PER_HOST,
                 size_mean_mib=SIZE_MEAN_MIB, serve_s=MTTR_SERVE_S,
                 horizon_s=MTTR_HORIZON_S, journal=journal)
    plan = f"crash@transfer:*,at={MTTR_CRASH_AT},duration={RESTART_S}"
    result = run_fabric(spec, seed=seed, cal=cal, fixed_rounds=FIXED_ROUNDS,
                        faults=FaultPlan.parse(plan))
    cells = result["cells"]
    out = _merge_cells(cells, MTTR_SERVE_S)
    events = _timeline(cells)
    restart_at = MTTR_CRASH_AT + RESTART_S
    pre = _window_goodput(events, MTTR_CRASH_AT - _GOODPUT_WINDOW,
                          MTTR_CRASH_AT)
    # Recovery: slide a goodput window from the restart forward (while
    # arrivals still flow) — the best window is the recovered level, and
    # MTTR is the time from crash until a window first clears 95% of the
    # pre-crash goodput.  A single fixed window would alias the Poisson
    # arrival noise into the gate.
    post = 0.0
    mttr_s = float("inf")
    t = restart_at
    while t + _GOODPUT_WINDOW <= MTTR_SERVE_S + _GOODPUT_WINDOW:
        g = _window_goodput(events, t, t + _GOODPUT_WINDOW)
        post = max(post, g)
        if mttr_s == float("inf") and pre > 0 and g >= 0.95 * pre:
            mttr_s = t - MTTR_CRASH_AT
        t += _BUCKET_S / 2.0
    n_buckets = int(round(MTTR_HORIZON_S / _BUCKET_S))
    curve = [
        round(_window_goodput(events, k * _BUCKET_S, (k + 1) * _BUCKET_S), 3)
        for k in range(n_buckets)
    ]
    out.update(
        hosts=hosts, journal=journal, plan=plan,
        crash_at=MTTR_CRASH_AT, restart_at=restart_at,
        pre_crash_goodput_Bps=pre,
        post_restart_goodput_Bps=post,
        recovery_ratio=post / pre if pre > 0 else 0.0,
        mttr_s=mttr_s,
        mttr_curve_Bps=curve,
    )
    return out


def domain_determinism_leg(*, seed: int,
                           cal: Optional[Calibration]) -> Dict[str, Any]:
    """Correlated-domain faults rerun at one seed must agree exactly."""
    from repro.service.fabric import FabricSpec, run_fabric

    # Deliberately overloaded (offered demand > rail rate): the cuts at
    # 1.0-2.0 s must always catch running jobs, whatever the seed, or
    # `rescheduled` would be 0 and the anchor would prove nothing.
    spec = FabricSpec(
        n_pods=DOMAIN_PODS, hosts_per_pod=DOMAIN_HOSTS_PER_POD,
        n_wan_links=1, wan_gbps=20.0, elephants_per_pod=1,
        elephant_gbps=4.0, rate_per_host=6.0, size_mean_mib=1024.0,
        wan_tenants=1, serve_s=DOMAIN_HORIZON_S - 1.0,
        horizon_s=DOMAIN_HORIZON_S)
    plan = ("link-down@power:0,at=1.0,duration=1.0,stagger=0.1;"
            f"link-down@tor:{DOMAIN_PODS - 1},at=1.5,duration=0.5,"
            "stagger=0.05")
    faults = FaultPlan.parse(plan)
    first = run_fabric(spec, seed=seed, cal=cal,
                       fixed_rounds=FIXED_ROUNDS, faults=faults)
    rerun = run_fabric(spec, seed=seed, cal=cal,
                       fixed_rounds=FIXED_ROUNDS, faults=faults)
    mismatches = 0
    for a, b in zip(first["cells"], rerun["cells"]):
        for key in ("submitted", "completed", "rescheduled",
                    "bytes_completed"):
            if a[key] != b[key]:
                mismatches += 1
    return {
        "plan": plan,
        "cells": DOMAIN_PODS,
        "mismatches": mismatches,
        "completed": sum(c["completed"] for c in first["cells"]),
        "rescheduled": sum(c["rescheduled"] for c in first["cells"]),
        "identical": mismatches == 0,
    }
