"""Process-pool-safe legs for the fleet-scale fabric experiment.

Each curve leg runs one :class:`~repro.service.fabric.FabricSpec`
through the topology-sharded runtime (:mod:`repro.sim.shard`) and folds
the per-pod ledgers into a fleet scorecard: sustained jobs/s, latency
percentiles over every pod's completed jobs, the QP/CM cliff counters
summed fleet-wide, and the boundary-exchange accounting.  The leg is a
single :class:`~repro.exec.SimTask` target: every exchange round runs
its cells in the leg's own process, so the whole fabric caches as one
content-addressed entry.

The differential leg is the experiment's correctness anchor: the same
small fabric through the sharded and single-process reference paths,
compared per cell.  On static scenarios (elephant flows only, no
churn) the boundary exchange converges to the global flow-level
max-min allocation, so agreement is held to 1e-6; on churn the
deterministic fixed-round mode must complete exactly the same jobs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.calibration import Calibration

__all__ = ["diff_leg", "fleet_leg"]

#: Exchange rounds of every sharded fleet-scale leg under churn: job
#: churn never quite settles the grant matrix, so these legs run the
#: deterministic fixed-round mode.
FIXED_ROUNDS = 2
#: Hosts per pod on every fleet and availability curve leg.
HOSTS_PER_POD = 8
#: Tenants whose jobs cross the WAN on every curve leg.
WAN_TENANTS = 2
#: Curve legs: arrivals stop at ``SERVE_S``; the fabric drains until
#: ``HORIZON_S``.
SERVE_S = 4.0
HORIZON_S = 6.0
#: The differential leg's pods and horizon.
DIFF_PODS = 4
DIFF_HORIZON_S = 4.0


def _spec(hosts: int, **overrides) -> "FabricSpec":
    from repro.service.fabric import FabricSpec

    if hosts % HOSTS_PER_POD:
        raise ValueError(
            f"hosts={hosts} not divisible by hosts_per_pod={HOSTS_PER_POD}")
    n_pods = hosts // HOSTS_PER_POD
    # WAN capacity scales with the fleet: one 100 Gbps link per four
    # pods, so the curve measures broker/fabric scaling, not a fixed
    # WAN ceiling shrinking per host.
    return FabricSpec(n_pods=n_pods, hosts_per_pod=HOSTS_PER_POD,
                      n_wan_links=max(1, n_pods // 4), **overrides)


def _merge(result: dict) -> Dict[str, Any]:
    """Fold per-pod ledgers + exchange into one fleet scorecard."""
    cells = result["cells"]
    exchange = result["exchange"]
    latencies = np.sort(np.concatenate(
        [np.asarray(c["latencies_s"], dtype=float) for c in cells]))
    if latencies.size:
        p50, p99 = np.percentile(latencies, [50.0, 99.0])
        mean = float(latencies.mean())
    else:
        p50 = p99 = mean = 0.0
    qpool = [c["qpool"] for c in cells if c.get("qpool")]
    active = sum(c["queued"] + c["running"] for c in cells)
    out: Dict[str, Any] = {
        "pods": exchange["n_cells"],
        "submitted": sum(c["submitted"] for c in cells),
        "completed": sum(c["completed"] for c in cells),
        "shed": sum(c["shed"] for c in cells),
        "cancelled": sum(c["cancelled"] for c in cells),
        "active_end": active,
        "wan_jobs": sum(c["wan_jobs"] for c in cells),
        "wan_bytes": sum(c["wan_bytes"] for c in cells),
        "jobs_per_s": sum(c["completed"] for c in cells) / SERVE_S,
        "mean_ms": mean * 1e3,
        "p50_ms": float(p50) * 1e3,
        "p99_ms": float(p99) * 1e3,
        "rounds": exchange["rounds"],
        "converged": exchange["converged"],
        "wan_util_max": max(
            b["utilization"] for b in exchange["boundaries"].values()),
        "qps_created": sum(q["qps_created"] for q in qpool),
        "qp_reuses": sum(q["qp_reuses"] for q in qpool),
        "thrashed_jobs": sum(q["thrashed_jobs"] for q in qpool),
        "cm_delay_total_s": sum(q["cm_delay_total_s"] for q in qpool),
        "cm_delay_max_s": max(
            (q["cm_delay_max_s"] for q in qpool), default=0.0),
    }
    out["conserved"] = (
        out["submitted"]
        == out["completed"] + out["shed"] + out["cancelled"] + active)
    return out


def fleet_leg(*, seed: int, cal: Optional[Calibration], hosts: int,
              qp_mode: str, rate_per_host: float,
              size_mean_mib: float) -> Dict[str, Any]:
    """One fleet curve point: *hosts* hosts under *qp_mode* accounting."""
    from repro.service.fabric import run_fabric

    spec = _spec(hosts, rate_per_host=rate_per_host,
                 size_mean_mib=size_mean_mib, wan_tenants=WAN_TENANTS,
                 serve_s=SERVE_S, horizon_s=HORIZON_S, qp_mode=qp_mode)
    result = run_fabric(spec, seed=seed, cal=cal, fixed_rounds=FIXED_ROUNDS)
    out = _merge(result)
    out.update(hosts=hosts, qp_mode=qp_mode,
               offered_rate=rate_per_host * hosts)
    return out


def diff_leg(*, seed: int, cal: Optional[Calibration]) -> Dict[str, Any]:
    """Sharded vs reference on one small fabric; returns the divergences."""
    from repro.service.fabric import FabricSpec, run_fabric

    # Static anchor: skewed elephants oversubscribing a 10 Gbps WAN —
    # pure boundary arbitration, where the exchange's fixed point is
    # the global max-min allocation and agreement must be exact.
    static = FabricSpec(
        n_pods=DIFF_PODS, hosts_per_pod=2, n_wan_links=1, wan_gbps=10.0,
        elephants_per_pod=2, elephant_gbps=6.0, elephant_skew=0.15,
        rate_per_host=0.0, serve_s=DIFF_HORIZON_S, horizon_s=DIFF_HORIZON_S,
        qp_mode="off")
    s = run_fabric(static, seed=seed, cal=cal)
    u = run_fabric(static, seed=seed, cal=cal, sharded=False)
    errs = [0.0]
    for cs, cu in zip(s["cells"], u["cells"]):
        for a, b in zip(cs["elephant_bytes"], cu["elephant_bytes"]):
            errs.append(abs(a - b) / max(1.0, abs(b)))
        errs.append(abs(cs["wan_bytes"] - cu["wan_bytes"])
                    / max(1.0, abs(cu["wan_bytes"])))

    # Churn anchor: a small job stream through the fixed-round mode
    # must complete exactly the same jobs as the reference.  (The WAN
    # here is contended but not saturated: at saturation, epoch-granular
    # grants can legitimately move a completion across the horizon.)
    churn = FabricSpec(
        n_pods=DIFF_PODS, hosts_per_pod=2, n_wan_links=1, wan_gbps=20.0,
        elephants_per_pod=1, elephant_gbps=4.0, rate_per_host=4.0,
        size_mean_mib=64.0, wan_tenants=2, serve_s=DIFF_HORIZON_S - 1.0,
        horizon_s=DIFF_HORIZON_S)
    cs_run = run_fabric(churn, seed=seed, cal=cal, fixed_rounds=FIXED_ROUNDS)
    cu_run = run_fabric(churn, seed=seed, cal=cal, sharded=False)
    return {
        "static_max_rel_err": max(errs),
        "static_rounds": s["exchange"]["rounds"],
        "static_converged": s["exchange"]["converged"],
        "churn_completed_sharded": sum(
            c["completed"] for c in cs_run["cells"]),
        "churn_completed_reference": sum(
            c["completed"] for c in cu_run["cells"]),
    }
