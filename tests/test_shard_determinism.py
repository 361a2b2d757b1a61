"""Seed-stability of the sharded runtime: results never depend on how
many workers or shards execute the cells.

The cell — not the shard — is the unit of simulation: cell *i* always
runs in its own context seeded ``cell_seed(seed, i)`` and the
coordinator's arithmetic is over deterministically ordered arrays, so
ledgers are byte-identical (canonical JSON) across ``--jobs`` counts
and shard counts.  ``exchange["n_shards"]`` legitimately varies and is
masked before comparison.
"""

import json

from repro.exec.runner import executor
from repro.service.fabric import FabricSpec, run_fabric
from repro.sim.shard import BoundaryLink, run_sharded

DEMO = dict(
    target="tests.shard_cells:demo_cell",
    n_cells=5,
    boundaries=[BoundaryLink("wan0", 200e6)],
    horizon=5.0, epoch_dt=1.0,
    params={"n_local": 2, "cross_rate": 80e6, "cross_skew": 0.3},
    seed=23,
)

FABRIC = FabricSpec(
    n_pods=3, hosts_per_pod=2, n_wan_links=1, wan_gbps=20.0,
    elephants_per_pod=1, elephant_gbps=4.0, rate_per_host=3.0,
    size_mean_mib=64.0, wan_tenants=2, serve_s=3.0, horizon_s=4.0)


def _canon(result: dict) -> str:
    masked = dict(result, exchange=dict(result["exchange"], n_shards=None))
    return json.dumps(masked, sort_keys=True)


def test_demo_ledgers_identical_across_shard_counts():
    reference = _canon(run_sharded(**DEMO, n_shards=1))
    for n_shards in (2, 3, 4, 5):
        assert _canon(run_sharded(**DEMO, n_shards=n_shards)) == reference, (
            f"n_shards={n_shards} diverged")


def test_demo_ledgers_identical_across_worker_counts():
    with executor(jobs=1):
        serial = _canon(run_sharded(**DEMO))
    with executor(jobs=8):
        parallel = _canon(run_sharded(**DEMO))
    assert parallel == serial


def test_fabric_ledgers_identical_across_workers_and_shards():
    outputs = set()
    for jobs, n_shards in ((1, 1), (1, 3), (2, 0), (4, 2)):
        with executor(jobs=jobs):
            result = run_fabric(FABRIC, seed=7, n_shards=n_shards,
                                fixed_rounds=2)
        outputs.add(_canon(result))
    assert len(outputs) == 1


def test_fabric_reruns_are_byte_identical_at_equal_seed():
    a = run_fabric(FABRIC, seed=7, fixed_rounds=2)
    b = run_fabric(FABRIC, seed=7, fixed_rounds=2)
    assert _canon(a) == _canon(b)


def test_different_seeds_give_different_job_streams():
    a = run_fabric(FABRIC, seed=7, fixed_rounds=2)
    b = run_fabric(FABRIC, seed=8, fixed_rounds=2)
    assert _canon(a) != _canon(b)
