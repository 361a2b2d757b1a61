"""Tests for the application layer: STREAM, iperf, fio."""

import pytest

from repro.apps.fio import FioJob, run_fio
from repro.apps.iperf import run_iperf
from repro.apps.streambench import run_stream_model
from repro.core.metrics import CpuBreakdown
from repro.hw import Machine, backend_lan_host, frontend_lan_host
from repro.kernel import NumaPolicy, place_region
from repro.net.topology import wire_frontend_lan, wire_san
from repro.sim.context import Context
from repro.storage import IserInitiator, IserTarget, RamDisk
from repro.util.units import GB, KIB, MIB, to_gbps


# --- STREAM ---------------------------------------------------------------------


def test_stream_model_matches_paper_anchor():
    ctx = Context.create(seed=2)
    host = frontend_lan_host(ctx, "h")
    res = run_stream_model(host, duration=5.0)
    # paper §2.3: 50 GB/s across the two nodes
    assert res.triad_gb_per_s == pytest.approx(50.0, rel=0.05)
    assert res.threads == 16


def test_stream_numa_aware_beats_oblivious():
    ctx = Context.create(seed=2)
    a = frontend_lan_host(ctx, "a")
    aware = run_stream_model(a, duration=3.0, numa_aware=True)
    ctx2 = Context.create(seed=2)
    b = frontend_lan_host(ctx2, "b")
    oblivious = run_stream_model(b, duration=3.0, numa_aware=False)
    assert aware.triad_bytes_per_s > oblivious.triad_bytes_per_s


# --- iperf -----------------------------------------------------------------------


def iperf_pair(seed=1):
    ctx = Context.create(seed=seed)
    a = frontend_lan_host(ctx, "a")
    b = frontend_lan_host(ctx, "b")
    wire_frontend_lan(a, b)
    return ctx, a, b


def test_iperf_motivating_anchors():
    ctx, a, b = iperf_pair()
    default = run_iperf(ctx, a, b, duration=15.0, numa_tuned=False)
    ctx2, a2, b2 = iperf_pair(seed=2)
    tuned = run_iperf(ctx2, a2, b2, duration=15.0, numa_tuned=True)
    # paper §2.3: 83.5 -> 91.8 Gbps
    assert default.aggregate_gbps == pytest.approx(83.5, rel=0.07)
    assert tuned.aggregate_gbps == pytest.approx(91.8, rel=0.05)
    assert tuned.aggregate_gbps > default.aggregate_gbps


def test_iperf_copy_share_near_35_percent():
    ctx, a, b = iperf_pair()
    res = run_iperf(ctx, a, b, duration=10.0, numa_tuned=False)
    assert 0.25 < res.copy_share() < 0.5


def test_iperf_unidirectional_less_than_bidirectional():
    ctx, a, b = iperf_pair()
    uni = run_iperf(ctx, a, b, duration=10.0, bidirectional=False,
                    numa_tuned=True)
    ctx2, a2, b2 = iperf_pair(seed=3)
    bi = run_iperf(ctx2, a2, b2, duration=10.0, bidirectional=True,
                   numa_tuned=True)
    assert bi.aggregate_rate > uni.aggregate_rate
    assert uni.per_direction_bytes.keys() == {"c-a->b"} or len(
        uni.per_direction_bytes) == 1


def test_iperf_cached_buffer_faster():
    ctx, a, b = iperf_pair()
    cached = run_iperf(ctx, a, b, duration=10.0, numa_tuned=True,
                       cached_buffer=True)
    ctx2, a2, b2 = iperf_pair(seed=4)
    uncached = run_iperf(ctx2, a2, b2, duration=10.0, numa_tuned=True)
    assert cached.aggregate_rate > uncached.aggregate_rate * 1.05


def test_iperf_validation():
    ctx, a, b = iperf_pair()
    with pytest.raises(ValueError):
        run_iperf(ctx, a, b, duration=0.0)


# --- fio --------------------------------------------------------------------------


def test_fio_job_validation():
    with pytest.raises(ValueError):
        FioJob(rw="randrw", block_size=4096)
    with pytest.raises(ValueError):
        FioJob(rw="read", block_size=0)


def san_for_fio(seed=5, tuning="numa"):
    ctx = Context.create(seed=seed)
    front = frontend_lan_host(ctx, "front", with_ib=True)
    back = backend_lan_host(ctx, "back")
    wire_san(ctx, front, back)
    target = IserTarget(ctx, back, tuning=tuning, n_links=2)
    for _ in range(6):
        target.create_lun(GB)
    initiator = IserInitiator(ctx, front, target)
    ctx.sim.run(until=initiator.login_all())
    return ctx, front, target, initiator


def test_fio_read_matches_calibrated_anchor():
    ctx, front, target, initiator = san_for_fio()
    devices = [initiator.devices[i] for i in sorted(initiator.devices)]
    res = run_fio(ctx, front, devices,
                  FioJob(rw="read", block_size=4 * MIB, runtime=10.0))
    assert to_gbps(res.bandwidth) == pytest.approx(99.2, rel=0.05)
    assert res.n_flows == 24  # 6 LUNs x 4 jobs
    assert res.iops > 0
    assert len(res.per_device_bytes) == 6


def test_fio_on_local_ramdisk():
    ctx = Context.create(seed=6)
    m = Machine(ctx, "m", pcie_sockets=(0,))
    disk = RamDisk(ctx, "rd", place_region(GB, NumaPolicy.bind(0), m.n_nodes))
    res = run_fio(ctx, m, [disk],
                  FioJob(rw="write", block_size=1 * MIB, numjobs=2,
                         runtime=5.0, bind_node=0))
    assert res.bandwidth > 1e9  # memory-speed
    assert CpuBreakdown.from_accounting(res.accounting, res.runtime).total > 0


def test_fio_small_blocks_cost_more_cpu_per_byte():
    ctx, front, target, initiator = san_for_fio(seed=7)
    devices = [initiator.devices[i] for i in sorted(initiator.devices)]
    small = run_fio(ctx, front, devices,
                    FioJob(rw="read", block_size=64 * KIB, runtime=5.0))
    ctx2, front2, target2, initiator2 = san_for_fio(seed=8)
    devices2 = [initiator2.devices[i] for i in sorted(initiator2.devices)]
    large = run_fio(ctx2, front2, devices2,
                    FioJob(rw="read", block_size=16 * MIB, runtime=5.0))
    cpu_small = small.accounting.total_seconds / small.total_bytes
    cpu_large = large.accounting.total_seconds / large.total_bytes
    assert cpu_small > cpu_large
    assert large.bandwidth > small.bandwidth


def test_fio_needs_devices():
    ctx = Context.create()
    m = Machine(ctx, "m")
    with pytest.raises(ValueError):
        run_fio(ctx, m, [], FioJob(rw="read", block_size=4096))
