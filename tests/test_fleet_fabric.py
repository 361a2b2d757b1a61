"""Fleet fabric: spec validation, QP/CM cliffs, WAN routing, ext-fleet."""

import pytest

from repro.core.experiments import ext_fleet
from repro.rdma.qpool import QpPoolConfig, QpPoolSet
from repro.service.fabric import FabricSpec, boundary_links, run_fabric
from repro.sim.context import Context


# -- FabricSpec validation -------------------------------------------------

def test_spec_rejects_unknown_qp_mode():
    with pytest.raises(ValueError, match="qp_mode"):
        FabricSpec(qp_mode="warm")


def test_spec_rejects_more_wan_tenants_than_tenants():
    with pytest.raises(ValueError, match="wan_tenants"):
        FabricSpec(wan_tenants=9)


def test_spec_rejects_serve_past_horizon():
    with pytest.raises(ValueError, match="serve_s"):
        FabricSpec(serve_s=12.0, horizon_s=10.0)


@pytest.mark.parametrize("field,value", [
    ("wan_gbps", 0.0),        # would divide by zero in the shard exchange
    ("rate_per_host", -1.0),  # would silently disable the workload
    ("n_wan_links", 3),       # 2 pods: a WAN link no pod would cross
])
def test_spec_rejects_bad_rates(field, value):
    with pytest.raises(ValueError, match=field):
        FabricSpec(**{field: value})


def test_boundary_links_cover_the_wan():
    spec = FabricSpec(n_pods=5, n_wan_links=3, wan_gbps=80.0)
    links = boundary_links(spec)
    # One link per pod: pod p crosses wan{p % 3}, and pods on the same
    # link share one BoundaryLink.
    assert [b.name for b in links] == ["wan0", "wan1", "wan2", "wan0", "wan1"]
    assert links[3] is links[0] and links[4] is links[1]
    assert all(b.capacity == pytest.approx(10e9) for b in links)
    assert FabricSpec(n_pods=4, hosts_per_pod=16).n_hosts == 64


# -- QP pool accounting ----------------------------------------------------

def test_qpool_config_validates():
    with pytest.raises(ValueError, match="mode"):
        QpPoolConfig(mode="eager")
    with pytest.raises(ValueError, match="thrash_floor"):
        QpPoolConfig(thrash_floor=0.0)
    with pytest.raises(ValueError, match="cm_base_s"):
        QpPoolConfig(cm_base_s=-1.0)


def _pool(**cfg):
    ctx = Context.create(seed=0)
    return ctx, QpPoolSet(ctx, QpPoolConfig(**cfg))


def test_pooled_mode_creates_once_per_tenant_then_reuses():
    ctx, pool = _pool(mode="pooled", qp_per_tenant=1, cm_base_s=0.002)
    _, d0 = pool.acquire(0, "t0")
    assert d0 >= 0.002 and pool.qps_created == 1
    for _ in range(5):
        _, delay = pool.acquire(0, "t0")
        assert delay == 0.0
    assert pool.qps_created == 1
    assert pool.qp_reuses == 5


def test_per_job_mode_queues_on_the_serial_cm():
    ctx, pool = _pool(mode="per-job", cm_rate=10.0, cm_base_s=0.001)
    delays = [pool.acquire(0, "t0")[1] for _ in range(4)]
    # Same-instant creations serialize at 1/cm_rate spacing.
    assert delays == pytest.approx([0.001, 0.101, 0.201, 0.301])
    assert pool.qps_created == 4
    assert pool.cm_delay_max == pytest.approx(0.301)


def test_cache_thrash_derates_only_past_the_cache():
    ctx, pool = _pool(mode="per-job", qp_cache=4, thrash_floor=0.1)
    derates = [pool.acquire(0, f"t{i}")[0] for i in range(8)]
    assert derates[:4] == [1.0] * 4
    assert derates[4] == pytest.approx(4 / 5)
    assert derates[7] == pytest.approx(4 / 8)
    assert pool.thrashed_jobs == 4
    assert pool.peak_active_qps == 8


def test_thrash_derate_floors():
    ctx, pool = _pool(mode="per-job", qp_cache=2, thrash_floor=0.5)
    for i in range(8):
        derate, _ = pool.acquire(0, f"t{i}")
    assert derate == 0.5  # 2/8 would be 0.25; the floor holds


def test_pooled_census_counts_at_most_the_pool_per_tenant():
    ctx, pool = _pool(mode="pooled", qp_per_tenant=2, qp_cache=4)
    for _ in range(10):
        derate, _ = pool.acquire(0, "t0")
    # 10 running jobs multiplex 2 pooled QPs: never past the cache.
    assert derate == 1.0
    assert pool.peak_active_qps == 2
    pool.release(0, "t0")
    assert pool._nics[0].active["t0"] == 9


def test_release_keeps_pooled_qps_warm():
    ctx, pool = _pool(mode="pooled", qp_per_tenant=1)
    pool.acquire(0, "t0")
    pool.release(0, "t0")
    _, delay = pool.acquire(0, "t0")
    assert delay == 0.0  # no new CM exchange: the pool entry survived
    assert pool.qps_created == 1


# -- the fabric end to end -------------------------------------------------

def _small_spec(**over):
    kw = dict(n_pods=2, hosts_per_pod=2, n_wan_links=1, wan_gbps=20.0,
              elephants_per_pod=1, elephant_gbps=2.0, rate_per_host=4.0,
              size_mean_mib=32.0, wan_tenants=2, serve_s=2.0, horizon_s=3.0)
    kw.update(over)
    return FabricSpec(**kw)


def test_fabric_routes_wan_tenants_over_the_cut():
    result = run_fabric(_small_spec(), seed=3, fixed_rounds=2)
    for cell in result["cells"]:
        assert cell["wan_jobs"] > 0
        assert cell["wan_bytes"] > 0
        assert cell["completed"] > cell["wan_jobs"]  # local jobs too
    assert result["exchange"]["boundaries"]["wan0"]["bytes"] > 0


def test_fabric_job_accounting_conserves():
    result = run_fabric(_small_spec(), seed=3, fixed_rounds=2)
    for cell in result["cells"]:
        assert cell["submitted"] == (
            cell["completed"] + cell["shed"] + cell["cancelled"]
            + cell["queued"] + cell["running"])


def test_fabric_qp_mode_off_disables_the_model():
    result = run_fabric(_small_spec(qp_mode="off"), seed=3, fixed_rounds=2)
    assert all(cell["qpool"] is None for cell in result["cells"])


def test_fabric_pooled_beats_per_job_on_identical_streams():
    pooled = run_fabric(_small_spec(qp_mode="pooled"), seed=3,
                        fixed_rounds=2)
    perjob = run_fabric(_small_spec(qp_mode="per-job"), seed=3,
                        fixed_rounds=2)
    ps = sum(c["submitted"] for c in pooled["cells"])
    js = sum(c["submitted"] for c in perjob["cells"])
    assert ps == js  # same seed -> same arrivals
    assert (sum(c["qpool"]["qps_created"] for c in pooled["cells"])
            < sum(c["qpool"]["qps_created"] for c in perjob["cells"]))


# -- ext-fleet plumbing ----------------------------------------------------

def test_fleet_sizes_env_override():
    # No variable overrides the sweep: it is fixed per mode.
    assert ext_fleet.fleet_sizes(quick=True) == (16, 32)
    assert ext_fleet.fleet_sizes(quick=False) == (128, 512, 2048)


def test_fleet_leg_rejects_indivisible_hosts():
    from repro.core.experiments.fleet_legs import fleet_leg
    with pytest.raises(ValueError, match="divisible"):
        fleet_leg(seed=0, cal=None, hosts=20, qp_mode="pooled",
                  rate_per_host=1.0, size_mean_mib=32.0, hosts_per_pod=8)


def test_ext_fleet_quick_report_is_clean():
    report = ext_fleet.run(quick=True, seed=0)
    assert report.all_ok, report.render()
