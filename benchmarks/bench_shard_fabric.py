"""Topology-sharded fabric benchmark: 512 hosts, sharded vs unsharded.

Runs one datacenter fabric — 64 pods of 8 front-end hosts each, four
WAN tenants per pod funnelling onto a single contended 100 Gbps WAN
link — through both execution paths of :mod:`repro.sim.shard`:

* **sharded** — each pod is a cell with its own event kernel and fluid
  solver; every round runs the cells one after another in this process,
  and they exchange per-epoch boundary flow rates over two fixed settle
  rounds;
* **reference** — the identical fabric in one process, one event loop,
  one fluid graph, where every job start and finish rebalances the
  WAN-coupled giant component spanning all 64 pods.

This is the tentpole number for topology sharding: the cut keeps each
pod's rebalances O(pod flows) instead of O(fleet flows), so the win is
algorithmic — both arms run in one process on one core.  The checks
pin the deterministic contract: the sharded fleet completes *exactly*
the same job count as the reference, sheds nothing, and conserves
boundary bytes.

The >=4x floor is the acceptance criterion (measured ~5x on one core;
CI machines are noisy, the floor is the guarantee).  Refresh the
committed baseline with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_shard_fabric.py
    cp benchmarks/results/shard_fabric.json benchmarks/baselines/
"""

from __future__ import annotations

import json
import os
import time

from repro.service.fabric import FabricSpec, run_fabric
from repro.sim.engine import Simulator

SEED = 5
#: The 512-host scenario: heavy WAN coupling (half the fleet's standing
#: flows share the cut link's component) is what the reference path pays
#: for on every event and the sharded path never sees.
SPEC = FabricSpec(
    n_pods=64, hosts_per_pod=8,
    n_wan_links=1, wan_gbps=100.0,
    rate_per_host=3.0, size_mean_mib=4096.0,
    wan_tenants=4,
    serve_s=6.0, horizon_s=8.0,
    elephants_per_pod=2, elephant_gbps=4.0,
)
#: Deterministic boundary exchange: two fixed settle rounds.
FIXED_ROUNDS = 2
#: The sharding acceptance floor: the sharded fabric must beat the
#: unsharded reference by at least this much, both in one process.
MIN_SPEEDUP = float(os.environ.get("REPRO_SHARD_MIN_SPEEDUP", "4.0"))


def _totals(result: dict) -> dict:
    cells = result["cells"]
    return {
        "completed": sum(c["completed"] for c in cells),
        "shed": sum(c["shed"] for c in cells),
        "wan_jobs": sum(c["wan_jobs"] for c in cells),
        "wan_bytes": sum(c["wan_bytes"] for c in cells),
    }


def test_shard_fabric_512_hosts(results_dir):
    assert SPEC.n_hosts == 512

    t0 = time.perf_counter()
    sharded = run_fabric(SPEC, seed=SEED, fixed_rounds=FIXED_ROUNDS)
    wall_sharded = time.perf_counter() - t0

    events_before = Simulator.events_processed_total
    t0 = time.perf_counter()
    reference = run_fabric(SPEC, seed=SEED, sharded=False)
    wall_reference = time.perf_counter() - t0
    events = Simulator.events_processed_total - events_before

    speedup = wall_reference / wall_sharded if wall_sharded > 0 else 0.0
    st, rt = _totals(sharded), _totals(reference)
    exchange = sharded["exchange"]
    bound_bytes = sum(b["bytes"] for b in exchange["boundaries"].values())
    conserve = abs(st["wan_bytes"] - bound_bytes) <= 1e-6 * max(
        1.0, st["wan_bytes"])
    capped = all(b["utilization"] <= 1.0 + 1e-6
                 for b in exchange["boundaries"].values())

    checks = [
        ("completed-jobs-agree", rt["completed"], st["completed"],
         st["completed"] == rt["completed"]),
        ("wan-jobs-agree", rt["wan_jobs"], st["wan_jobs"],
         st["wan_jobs"] == rt["wan_jobs"]),
        ("jobs-shed", 0, st["shed"] + rt["shed"],
         st["shed"] == 0 and rt["shed"] == 0),
        ("exchange-rounds", FIXED_ROUNDS, exchange["rounds"],
         exchange["rounds"] == FIXED_ROUNDS),
        ("boundary-bytes-conserve", True, conserve, conserve),
        ("wan-utilization-capped", True, capped, capped),
    ]
    all_ok = all(ok for _, _, _, ok in checks)

    payload = {
        "name": "shard_fabric",
        "experiment_id": "shard-fabric-512",
        "quick": True,
        "ops": events,
        "wall_seconds": wall_sharded,
        "events_per_sec": events / wall_sharded if wall_sharded > 0 else 0.0,
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": [
            {"metric": m, "paper": repr(p), "measured": repr(v), "ok": ok}
            for m, p, v, ok in checks
        ],
        # Microbenchmark extras (ignored by the gate, kept for humans):
        "wall_sharded": wall_sharded,
        "wall_reference": wall_reference,
        "speedup": speedup,
        "n_hosts": SPEC.n_hosts,
        "n_pods": SPEC.n_pods,
        "completed": st["completed"],
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "shard_fabric.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nshard fabric 512 hosts: reference {wall_reference:.2f} s "
          f"(unsharded), sharded {wall_sharded:.2f} s "
          f"({exchange['rounds']} rounds) -> {speedup:.1f}x, "
          f"{st['completed']} jobs completed in both")

    assert all_ok, "shard fabric diverged: " + ", ".join(
        f"{m} (expected={p!r}, measured={v!r})"
        for m, p, v, ok in checks if not ok
    )
    assert speedup >= MIN_SPEEDUP, (
        f"shard fabric speedup {speedup:.1f}x below floor "
        f"{MIN_SPEEDUP:.1f}x (reference {wall_reference:.2f}s, "
        f"sharded {wall_sharded:.2f}s)"
    )
