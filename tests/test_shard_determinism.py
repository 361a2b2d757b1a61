"""Seed-stability of the sharded runtime: results never depend on the
worker count or on how often the run is repeated.

The cell is the unit of simulation: cell *i* always runs in its own
context seeded ``cell_seed(seed, i)`` and the coordinator's arithmetic
is over deterministically ordered arrays, so ledgers are byte-identical
(canonical JSON) across ``--jobs`` counts, in a worker process or in
the caller, and across reruns.
"""

import json

from repro.exec import SimTask, run_tasks
from repro.exec.runner import executor
from repro.service.fabric import FabricSpec, run_fabric
from repro.sim.shard import BoundaryLink, run_sharded

DEMO = dict(
    target="tests.shard_cells:demo_cell",
    links=[BoundaryLink("wan0", 200e6)] * 5,
    horizon=5.0, epoch_dt=1.0,
    params={"n_local": 2, "cross_rate": 80e6, "cross_skew": 0.3},
    seed=23,
)

FABRIC = FabricSpec(
    n_pods=3, hosts_per_pod=2, n_wan_links=1, wan_gbps=20.0,
    elephants_per_pod=1, elephant_gbps=4.0, rate_per_host=3.0,
    size_mean_mib=64.0, wan_tenants=2, serve_s=3.0, horizon_s=4.0)


def _canon(result) -> str:
    return json.dumps(result, sort_keys=True)


def test_demo_reruns_are_byte_identical():
    assert _canon(run_sharded(**DEMO)) == _canon(run_sharded(**DEMO))


def test_demo_ledgers_identical_across_worker_counts():
    # Two sharded runs as pool tasks: in this process at jobs=1, each in
    # its own worker process at jobs=2.
    params = {k: v for k, v in DEMO.items() if k != "seed"}
    tasks = [SimTask("repro.sim.shard:run_sharded", params, seed=seed)
             for seed in (23, 24)]
    with executor(jobs=1):
        serial = _canon(run_tasks(tasks))
    with executor(jobs=2):
        parallel = _canon(run_tasks(tasks))
    assert parallel == serial


def test_fabric_ledgers_identical_across_worker_counts():
    # Two fleet legs: at jobs=2 each runs in its own worker process, at
    # jobs=1 both run in this one; the sharded fabric inside must not
    # notice.
    tasks = [SimTask("repro.core.experiments.fleet_legs:fleet_leg",
                     {"hosts": 16, "qp_mode": mode, "rate_per_host": 3.0,
                      "size_mean_mib": 64.0}, seed=7)
             for mode in ("pooled", "per-job")]
    with executor(jobs=1):
        serial = _canon(run_tasks(tasks))
    with executor(jobs=2):
        parallel = _canon(run_tasks(tasks))
    assert parallel == serial


def test_fabric_reruns_are_byte_identical_at_equal_seed():
    a = run_fabric(FABRIC, seed=7, fixed_rounds=2)
    b = run_fabric(FABRIC, seed=7, fixed_rounds=2)
    assert _canon(a) == _canon(b)


def test_different_seeds_give_different_job_streams():
    a = run_fabric(FABRIC, seed=7, fixed_rounds=2)
    b = run_fabric(FABRIC, seed=8, fixed_rounds=2)
    assert _canon(a) != _canon(b)
