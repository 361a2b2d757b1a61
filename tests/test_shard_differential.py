"""Sharded vs single-process reference: the 1e-6 differential suite.

The boundary exchange's fixed point is the flow-level max-min fair
allocation over the cut links — the allocation the unsharded kernel
computes directly.  Every scenario here runs both paths at one seed
and holds per-cell, per-flow byte ledgers to 1e-6.
"""

import pytest

from repro.core.experiments.fleet_legs import diff_leg
from repro.service.fabric import FabricSpec, run_fabric
from repro.sim.shard import BoundaryLink, run_sharded, run_unsharded

REL = 1e-6


def _both(**kw):
    sharded = run_sharded(**kw)
    unsharded = run_unsharded(**{
        k: v for k, v in kw.items()
        if k in ("target", "n_cells", "boundaries", "horizon", "epoch_dt",
                 "params", "seed", "cal")})
    return sharded, unsharded


def _assert_cells_match(sharded, unsharded, keys=("local_bytes",
                                                  "cross_bytes")):
    for cs, cu in zip(sharded["cells"], unsharded["cells"]):
        for key in keys:
            assert cs[key] == pytest.approx(cu[key], rel=REL), (
                f"cell {cu.get('cell', cu.get('pod'))} diverges on {key}")


def _demo(**over):
    kw = dict(
        target="tests.shard_cells:demo_cell",
        n_cells=3,
        boundaries=[BoundaryLink("wan0", 300e6)],
        horizon=6.0, epoch_dt=1.0,
        params={"n_local": 2, "local_rate": 50e6},
        seed=11,
    )
    kw.update(over)
    return kw


def test_uncapped_cross_flows_split_the_link_evenly():
    sharded, unsharded = _both(**_demo(params={"n_local": 1,
                                               "cross_rate": None}))
    _assert_cells_match(sharded, unsharded)
    # 3 hungry flows on a 300 MB/s link for 6 s: 600 MB each.
    for cell in sharded["cells"]:
        assert cell["cross_bytes"] == pytest.approx(6e8, rel=REL)


def test_capped_cross_flows_below_the_link_run_at_cap():
    sharded, unsharded = _both(**_demo(params={"n_local": 1,
                                               "cross_rate": 60e6}))
    _assert_cells_match(sharded, unsharded)
    assert sharded["exchange"]["early_accept"]


def test_oversubscribed_capped_flows_share_max_min():
    sharded, unsharded = _both(**_demo(params={"n_local": 1,
                                               "cross_rate": 150e6}))
    _assert_cells_match(sharded, unsharded)
    assert not sharded["exchange"]["early_accept"]


def test_asymmetric_caps_pin_some_flows_and_feed_the_hungry():
    # Caps 90/112.5/135 MB/s on a 300 MB/s link: the smallest cap is
    # below the equal share, so its flow is pinned and the slack goes
    # to the others — the case the hungry-vs-pinned flag exists for.
    sharded, unsharded = _both(**_demo(
        params={"n_local": 1, "cross_rate": 90e6, "cross_skew": 0.25}))
    _assert_cells_match(sharded, unsharded)
    cross = [c["cross_bytes"] for c in sharded["cells"]]
    assert cross[0] == pytest.approx(90e6 * 6.0, rel=REL)
    assert cross[1] > cross[0]


def test_local_traffic_never_crosses_the_cut():
    sharded, unsharded = _both(**_demo(params={"n_local": 3,
                                               "cross_rate": 20e6,
                                               "local_rate": 80e6}))
    _assert_cells_match(sharded, unsharded)
    # 3 local flows share the cell's 80 MB/s local resource evenly,
    # untouched by the exchange's arbitration of the 20 MB/s cross flow.
    for cell in sharded["cells"]:
        assert cell["local_bytes"] == pytest.approx(
            [80e6 / 3.0 * 6.0] * 3, rel=REL)


def test_multi_boundary_cells_settle_every_cut_link():
    kw = _demo(
        boundaries=[BoundaryLink("wan0", 120e6), BoundaryLink("wan1", 1e9)],
        params={"n_local": 1, "cross_rate": None})
    sharded, unsharded = _both(**kw)
    _assert_cells_match(sharded, unsharded)
    assert sharded["exchange"]["boundaries"]["wan0"]["utilization"] == (
        pytest.approx(1.0, rel=REL))


def test_fabric_static_elephants_match_reference():
    spec = FabricSpec(
        n_pods=4, hosts_per_pod=2, n_wan_links=2, wan_gbps=10.0,
        elephants_per_pod=2, elephant_gbps=6.0, elephant_skew=0.2,
        rate_per_host=0.0, serve_s=4.0, horizon_s=4.0, qp_mode="off")
    sharded = run_fabric(spec, seed=13)
    unsharded = run_fabric(spec, seed=13, sharded=False)
    _assert_cells_match(sharded, unsharded,
                        keys=("elephant_bytes", "wan_bytes"))
    for name, row in sharded["exchange"]["boundaries"].items():
        assert row["bytes"] == pytest.approx(
            unsharded["exchange"]["boundaries"][name]["bytes"], rel=REL)


def test_fabric_churn_completes_identical_jobs():
    out = diff_leg(seed=91, cal=None)
    assert out["static_max_rel_err"] <= REL
    assert (out["churn_completed_sharded"]
            == out["churn_completed_reference"] > 0)
