"""E7: fleet-scale fabric sweeps through the topology-sharded runtime.

The paper's testbed is a handful of hosts; the ROADMAP's north star is
the question operators actually face — what happens at datacenter
scale, where thousands of tenants multiplex pooled QPs over shared
NICs.  This extension runs N-host/M-tenant fabrics
(:mod:`repro.service.fabric`) through the topology-sharded runtime
(:mod:`repro.sim.shard`): each pod simulates independently in its
own event loop and only per-epoch WAN boundary rates are exchanged, so
the sweep scales past what one event loop can hold while staying
seed-stable; each fleet size is one task on the process pool, so the
ledger is worker-count-independent.

At each fleet size the ``pooled`` QP mode (RDMAvisor-style per-tenant
pools) and the ``per-job`` baseline (every job creates its own QP) run
at the **same seed** — identical arrivals, sizes, placements — so the
jobs/s and latency gap is purely the QP-cache and connection-manager
cliffs.  A differential leg anchors correctness: the same fabric
through the sharded and single-process reference paths must agree to
1e-6 on static scenarios and complete identical job counts under churn.

Run-configuration knob: ``fleet_hosts`` (``REPRO_FLEET_HOSTS``) —
comma-separated host counts replacing the default sweep (CI's
fleet-smoke runs ``128``).  The hosts are ordinary leg parameters, so
they hash into the result-cache identity.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.core.calibration import Calibration
from repro.core.report import ExperimentReport
from repro.exec import SimTask, run_tasks

__all__ = ["run", "plan", "assemble", "fleet_sizes"]

_LEGS = "repro.core.experiments.fleet_legs"

#: Offered load per host (jobs/s) and mean file size for the curve.
RATE_PER_HOST = 4.0
SIZE_MEAN_MIB = 64.0
#: QP accounting modes compared at each size (same seed).
MODES = ("pooled", "per-job")


def fleet_sizes(quick: bool = True, config: RunConfig = RunConfig()) -> tuple[int, ...]:
    """Host counts to sweep (``config.fleet_hosts``, else the defaults)."""
    return config.fleet_hosts or ((16, 32) if quick else (128, 512, 2048))


def plan(quick: bool = True, seed: int = 0, cal: Calibration | None = None,
         config: RunConfig = RunConfig()) -> list[SimTask]:
    """Per fleet size, one pooled and one per-job leg at the same seed,
    plus the sharded-vs-reference differential anchor."""
    sizes = fleet_sizes(quick, config)
    tasks: list[SimTask] = []
    for i, hosts in enumerate(sizes):
        for mode in MODES:
            tasks.append(SimTask(
                f"{_LEGS}:fleet_leg",
                {"hosts": hosts, "qp_mode": mode,
                 "rate_per_host": RATE_PER_HOST,
                 "size_mean_mib": SIZE_MEAN_MIB},
                seed=seed + i, cal=cal,
                label=f"fleet/{mode}-x{hosts}"))
    tasks.append(SimTask(
        f"{_LEGS}:diff_leg", {}, seed=seed + 91, cal=cal,
        label="fleet/differential"))
    return tasks


def assemble(results, quick: bool = True, seed: int = 0,
             cal: Calibration | None = None,
             config: RunConfig = RunConfig()) -> ExperimentReport:
    """Fold the legs into the fleet-scaling report."""
    sizes = fleet_sizes(quick, config)
    legs = {(leg["hosts"], leg["qp_mode"]): leg
            for leg in results[:2 * len(sizes)]}
    diff = results[2 * len(sizes)]

    report = ExperimentReport(
        "ext-fleet",
        "E7: fleet-scale fabric sweeps — sustained jobs/s and latency vs "
        "fleet size through the topology-sharded runtime, pooled QPs vs "
        "per-job creation (RDMAvisor-style cliffs)",
        data_headers=["hosts", "qp mode", "offered /s", "jobs/s",
                      "p50 ms", "p99 ms", "QPs created", "CM delay max ms",
                      "WAN util", "shed"],
    )
    for hosts in sizes:
        for mode in MODES:
            leg = legs[(hosts, mode)]
            report.add_row([
                hosts, mode,
                round(leg["offered_rate"], 1),
                round(leg["jobs_per_s"], 1),
                round(leg["p50_ms"], 1),
                round(leg["p99_ms"], 1),
                leg["qps_created"],
                round(leg["cm_delay_max_s"] * 1e3, 1),
                f"{leg['wan_util_max']:.0%}",
                leg["shed"],
            ])

    # -- correctness anchors: the CI fleet-smoke gate ---------------------
    report.add_check(
        "sharded == reference on static boundary scenarios",
        "max rel err <= 1e-6", f"{diff['static_max_rel_err']:.2e}",
        ok=diff["static_max_rel_err"] <= 1e-6)
    report.add_check(
        "sharded completes identical jobs under churn (fixed rounds)",
        f"{diff['churn_completed_reference']} jobs",
        diff["churn_completed_sharded"],
        ok=(diff["churn_completed_sharded"]
            == diff["churn_completed_reference"] > 0))
    report.add_check(
        "boundary exchange converged on every curve leg", "all converged",
        all(leg["converged"] for leg in legs.values()),
        ok=all(leg["converged"] for leg in legs.values()))
    report.add_check(
        "job accounting conserves (all legs)",
        "submitted == completed + shed + cancelled + active",
        all(leg["conserved"] for leg in legs.values()),
        ok=all(leg["conserved"] for leg in legs.values()))

    # -- the QP cliffs ----------------------------------------------------
    big = sizes[-1]
    pooled, perjob = legs[(big, "pooled")], legs[(big, "per-job")]
    report.add_check(
        f"pooling caps QP creations at {big} hosts",
        f"< {perjob['qps_created']} (per-job)", pooled["qps_created"],
        ok=0 < pooled["qps_created"] < perjob["qps_created"])
    report.add_check(
        "pooled QPs are reused across jobs", "> 0 reuses",
        pooled["qp_reuses"], ok=pooled["qp_reuses"] > 0)
    report.add_check(
        "per-job creation pays the CM queue",
        f"> {pooled['cm_delay_total_s']:.3f} s total (pooled)",
        f"{perjob['cm_delay_total_s']:.3f} s",
        ok=perjob["cm_delay_total_s"] > pooled["cm_delay_total_s"])
    report.add_check(
        "pooled mean latency <= per-job at equal job stream",
        f"<= {perjob['mean_ms']:.1f} ms", f"{pooled['mean_ms']:.1f} ms",
        ok=pooled["mean_ms"] <= perjob["mean_ms"])

    # -- capacity scaling -------------------------------------------------
    lo, hi = sizes[0], sizes[-1]
    if hi > lo:
        scale = hi / lo
        ratio = (legs[(hi, "pooled")]["jobs_per_s"]
                 / legs[(lo, "pooled")]["jobs_per_s"]
                 if legs[(lo, "pooled")]["jobs_per_s"] else 0.0)
        report.add_check(
            f"sustained jobs/s scales with the fleet ({lo} -> {hi} hosts)",
            f">= {0.85 * scale:.2f}x", f"{ratio:.2f}x",
            ok=ratio >= 0.85 * scale)
    report.add_check(
        "no load shedding at reference load", "0 shed",
        sum(leg["shed"] for leg in legs.values()),
        ok=all(leg["shed"] == 0 for leg in legs.values()))

    report.notes.append(
        f"At {big} hosts the per-job baseline creates "
        f"{perjob['qps_created']} QPs against the pool's "
        f"{pooled['qps_created']}: every creation is a serial CM exchange, "
        f"so its worst-case setup wait reaches "
        f"{perjob['cm_delay_max_s'] * 1e3:.1f} ms (pooled "
        f"{pooled['cm_delay_max_s'] * 1e3:.1f} ms) — the RDMAvisor "
        "connection-storm cliff, reproduced from the pod arrival rates.")
    report.notes.append(
        f"Sharded vs reference divergence on the static anchor: "
        f"{diff['static_max_rel_err']:.2e} after "
        f"{diff['static_rounds']} exchange round(s); churn anchor "
        f"completed {diff['churn_completed_sharded']} jobs in both modes. "
        "Pods simulate independently (one cell per pod, NUMA-local rails "
        "never cross the cut), so results are byte-identical at any "
        "worker count.")
    return report


def run(quick: bool = True, seed: int = 0, cal: Calibration | None = None,
        config: RunConfig = RunConfig()) -> ExperimentReport:
    """Run the experiment; returns the fleet-scaling report."""
    results = run_tasks(plan(quick=quick, seed=seed, cal=cal, config=config))
    return assemble(results, quick=quick, seed=seed, cal=cal, config=config)
