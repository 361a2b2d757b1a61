"""Tests for the core layer: calibration, tuning, metrics, breakdown,
report, and the composed EndToEndSystem."""

import pytest

from repro.core.breakdown import BlockDelayBreakdown, fig4_categories
from repro.core.calibration import CALIBRATION
from repro.core.metrics import CpuBreakdown, RunResult
from repro.core.report import ExperimentReport
from repro.core.system import EndToEndSystem
from repro.core.tuning import TuningPolicy
from repro.kernel.accounting import CpuAccounting
from repro.util.units import GB, MIB, to_gbps


# --- calibration ------------------------------------------------------------------


def test_calibration_is_frozen():
    with pytest.raises(Exception):
        CALIBRATION.qpi_bandwidth = 1.0  # type: ignore[misc]


def test_calibration_replace_for_ablations():
    alt = CALIBRATION.replace(qpi_bandwidth=1e9)
    assert alt.qpi_bandwidth == 1e9
    assert CALIBRATION.qpi_bandwidth != 1e9
    assert alt.mem_bandwidth_per_node == CALIBRATION.mem_bandwidth_per_node


def test_calibration_derived_rates():
    assert CALIBRATION.derived_ib_data_rate() < CALIBRATION.ib_fdr_line_rate
    r9000 = CALIBRATION.derived_roce_data_rate(9000)
    r1500 = CALIBRATION.derived_roce_data_rate(1500)
    assert r1500 < r9000 < CALIBRATION.roce_line_rate


def test_stream_consistency():
    """Raw bank capacity = STREAM-reported * 4/3 (write-allocate)."""
    total_raw = 2 * CALIBRATION.mem_bandwidth_per_node
    assert total_raw == pytest.approx(CALIBRATION.stream_triad_total * 4 / 3,
                                      rel=0.01)


# --- tuning ---------------------------------------------------------------------


def test_tuning_presets():
    d = TuningPolicy.default()
    n = TuningPolicy.numa_bound()
    assert d.target_tuning == "default" and not d.bind_apps and not d.tune_irq
    assert n.target_tuning == "numa" and n.bind_apps and n.tune_irq
    assert d.label == "default" and n.label == "NUMA-tuned"


def test_tuning_validation():
    with pytest.raises(ValueError):
        TuningPolicy(target_tuning="bogus")


# --- metrics ---------------------------------------------------------------------


def test_cpu_breakdown_from_accounting():
    acc = CpuAccounting("x")
    acc.add("copy", 5.0)
    acc.add("usr_proto", 2.5)
    b = CpuBreakdown.from_accounting(acc, wall=10.0)
    assert b.get("copy") == pytest.approx(50.0)
    assert b.total == pytest.approx(75.0)
    assert b.sys == pytest.approx(50.0)
    assert b.usr == pytest.approx(25.0)
    with pytest.raises(ValueError):
        CpuBreakdown.from_accounting(acc, wall=0.0)


def test_run_result_summary():
    r = RunResult(label="x", total_bytes=125e9, duration=10.0)
    assert r.goodput_gbps == pytest.approx(100.0)
    assert "100.0 Gbps" in r.summary()


# --- breakdown ------------------------------------------------------------------


def test_fig4_categories_maps_labels():
    acc = CpuAccounting("t")
    acc.add("copy", 1.0)
    acc.add("sys_proto", 2.0)
    cats = fig4_categories(acc, wall=10.0)
    assert cats["data copy"] == pytest.approx(10.0)
    assert cats["kernel protocol"] == pytest.approx(20.0)


def test_block_delay_breakdown():
    b = BlockDelayBreakdown.from_rates(
        block_size=4 * MIB, load_rate=5e9, wire_rate=4.9e9, offload_rate=4e9,
        propagation=83e-6,
    )
    assert b.bottleneck() == "offload"
    assert b.total_seconds > b.pipelined_seconds
    assert 2.5 < b.speedup_from_pipelining() <= 3.0
    with pytest.raises(ValueError):
        BlockDelayBreakdown.from_rates(0, 1, 1, 1)


# --- report ----------------------------------------------------------------------


def test_report_render_and_status():
    rep = ExperimentReport("figX", "demo", data_headers=["a", "b"])
    rep.add_check("m1", 1.0, 1.05, ok=True)
    rep.add_check("m2", 2.0, 9.0, ok=False)
    rep.add_check("info", "-", "-")
    rep.add_row([1, 2])
    text = rep.render()
    assert "figX" in text and "DIVERGES" in text and "OK" in text
    assert not rep.all_ok


def test_report_all_ok_when_no_failures():
    rep = ExperimentReport("figY", "demo")
    rep.add_check("m", 1, 1, ok=True)
    rep.add_check("info", "-", "-")
    assert rep.all_ok


# --- EndToEndSystem ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tuned_system():
    return EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=42,
                                      lun_size=2 * GB)


def test_system_construction(tuned_system):
    s = tuned_system
    assert len(s.frontend_links) == 3
    assert len(s.san_a.links) == 2 and len(s.san_b.links) == 2
    assert len(s.tgt_a.luns) == 6
    assert len(s.fs_a) == 6 and len(s.fs_b) == 6
    assert all(fs.fstype == "xfs" for fs in s.fs_a)


def test_system_fio_ceiling_then_rftp(tuned_system):
    s = tuned_system
    ceiling = s.fio_file_write_ceiling(runtime=10.0)
    assert to_gbps(ceiling) == pytest.approx(92.3, rel=0.05)
    rftp = s.run_rftp_transfer(duration=15.0)
    assert rftp.goodput == pytest.approx(ceiling, rel=0.08)
    assert rftp.series is not None and len(rftp.series) >= 10


def test_system_default_tuning_slower():
    tuned = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=50,
                                       lun_size=2 * GB)
    t = tuned.run_rftp_transfer(duration=15.0)
    untuned = EndToEndSystem.lan_testbed(TuningPolicy.default(), seed=51,
                                         lun_size=2 * GB)
    u = untuned.run_rftp_transfer(duration=15.0)
    assert t.goodput > u.goodput


def test_system_bidirectional_improves_aggregate():
    s1 = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=60,
                                    lun_size=2 * GB)
    uni = s1.run_rftp_transfer(duration=15.0)
    s2 = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=61,
                                    lun_size=2 * GB)
    bi = s2.run_rftp_bidirectional(duration=15.0)
    gain = bi.goodput / uni.goodput
    assert 1.5 < gain <= 2.0  # paper: 1.83x


def test_system_ext4_variant_builds():
    s = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=70,
                                   lun_size=GB, fs_kind="ext4", n_luns=2)
    assert all(fs.fstype == "ext4" for fs in s.fs_a)
