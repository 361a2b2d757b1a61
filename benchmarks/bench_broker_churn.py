"""Churn benchmark: burst-heavy fleet serving on the coalescing fluid kernel.

Runs one churn-dominated serving scenario — two pods of 8 front-end
hosts whose tenants all egress over the shared WAN (so every job joins
the fabric's one giant fluid component), fed 64-job same-timestamp
arrival bursts of fixed-size transfers.  Flow transitions at one
instant mark components dirty and share a single rebalance flushed
when the event clock advances, and each burst is dispatched through the
broker's bulk ``submit_many`` → ``start_many`` path, so a 64-job burst
pays one allocation pass over the WAN-coupled component instead of 64.

The checks are the burst census — completed, WAN and shed jobs —
which the regression gate compares with the committed baseline.
Refresh the baseline with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_broker_churn.py
    cp benchmarks/results/broker_churn.json benchmarks/baselines/
"""

from __future__ import annotations

import json
import time

from repro.service.fabric import FabricSpec, run_fabric
from repro.sim.engine import Simulator

SEED = 7
#: The churn-heavy serving leg: every tenant is a WAN tenant, so all
#: ~9.6k jobs contend in one uplink+WAN component; 64-job bursts at 24
#: arrival events/s/pod make same-instant transition waves the dominant
#: cost; admission is unconstrained (quota/budget/queue headroom) so
#: the broker, not the admission throttle, sets the churn rate.
SPEC = FabricSpec(
    n_pods=2, hosts_per_pod=8,
    n_wan_links=1, wan_gbps=100.0,
    rate_per_host=3.0, size_mean_mib=4.0, size_dist="fixed", burst=64,
    n_tenants=8, wan_tenants=8,
    tenant_quota=4096, budget_fraction=64.0, max_queue=8192,
    serve_s=2.0, horizon_s=3.5, epoch_dt=1.0,
    elephants_per_pod=2, elephant_gbps=4.0,
)


def _totals(result: dict) -> dict:
    cells = result["cells"]
    return {
        "completed": sum(c["completed"] for c in cells),
        "shed": sum(c["shed"] for c in cells),
        "wan_jobs": sum(c["wan_jobs"] for c in cells),
    }


def test_broker_churn_burst_serving(results_dir):
    events_before = Simulator.events_processed_total
    t0 = time.perf_counter()
    result = run_fabric(SPEC, seed=SEED, sharded=False)
    wall = time.perf_counter() - t0
    events = Simulator.events_processed_total - events_before

    totals = _totals(result)
    checks = [
        ("completed-jobs", "> 0", totals["completed"],
         totals["completed"] > 0),
        ("wan-jobs", "> 0", totals["wan_jobs"], totals["wan_jobs"] > 0),
        ("jobs-shed", 0, totals["shed"], totals["shed"] == 0),
    ]
    all_ok = all(ok for _, _, _, ok in checks)

    payload = {
        "name": "broker_churn",
        "experiment_id": "broker-churn-burst",
        "quick": True,
        "ops": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": [
            {"metric": m, "paper": repr(p), "measured": repr(v), "ok": ok}
            for m, p, v, ok in checks
        ],
        "burst": SPEC.burst,
        "n_hosts": SPEC.n_hosts,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "broker_churn.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nbroker churn burst serving: {wall:.2f} s, "
          f"{totals['completed']} jobs completed, {totals['shed']} shed")

    assert all_ok, "burst census off: " + ", ".join(
        f"{m}={v!r} (expected {p!r})" for m, p, v, ok in checks if not ok)
