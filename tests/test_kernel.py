"""Tests for the OS model: accounting, NUMA policy, pages, work compiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import CpuBreakdown
from repro.hw import Machine, Nic, NicKind
from repro.kernel import (
    CpuAccounting,
    NumaPolicy,
    PathSpec,
    SimProcess,
    WorkItem,
    build_thread_path,
    numactl,
    place_region,
)
from repro.kernel.interrupts import irq_path
from repro.kernel.numa import NumaPolicyKind
from repro.kernel.pages import PAGE_SIZE, remote_fraction
from repro.kernel.work import merge_paths
from repro.sim.context import Context


def ctx():
    return Context.create(seed=3)


def machine(c=None):
    return Machine(c or ctx(), "m", n_sockets=2, cores_per_socket=8,
                   pcie_sockets=(0,))


# --- accounting --------------------------------------------------------------


def test_accounting_accumulates():
    acc = CpuAccounting("t")
    acc.add("copy", 1.5)
    acc.add("copy", 0.5)
    acc.add("sys_proto", 1.0)
    assert acc.total_seconds == pytest.approx(3.0)
    assert acc.seconds_by_category()["copy"] == pytest.approx(2.0)


def test_accounting_negative_rejected():
    acc = CpuAccounting("t")
    with pytest.raises(ValueError):
        acc.add("copy", -1.0)


def test_accounting_usr_sys_split():
    acc = CpuAccounting("t")
    acc.add("usr_proto", 1.0)
    acc.add("load", 2.0)
    acc.add("sys_proto", 3.0)
    acc.add("copy", 4.0)
    acc.add("irq", 5.0)
    # 3 usr and 12 sys core-seconds over 10 wall seconds
    cpu = CpuBreakdown.from_accounting(acc, wall=10.0)
    assert cpu.usr == pytest.approx(30.0)
    assert cpu.sys == pytest.approx(120.0)
    assert cpu.usr + cpu.sys == pytest.approx(cpu.total)


def test_accounting_merged():
    a, b = CpuAccounting("a"), CpuAccounting("b")
    a.add("copy", 1.0)
    b.add("copy", 2.0)
    b.add("irq", 3.0)
    m = CpuAccounting.total([a, b], "ab")
    assert m.name == "ab"
    assert m.seconds_by_category() == {"copy": 3.0, "irq": 3.0}
    # the inputs are left as they were
    assert a.seconds_by_category() == {"copy": 1.0}


def test_process_merged_accounting_sums_threads():
    m = Machine(Context.create(), "m")
    p = SimProcess(m, "p")
    t1, t2 = p.spawn_thread(), p.spawn_thread()
    p.accounting.add("irq", 0.5)
    t1.accounting.add("load", 1.0)
    t2.accounting.add("sys_proto", 2.0)
    merged = p.merged_accounting()
    assert merged.name == "p"
    assert merged.seconds_by_category() == {
        "irq": 0.5, "load": 1.0, "sys_proto": 2.0}
    cpu = CpuBreakdown.from_accounting(merged, wall=1.0)
    assert cpu.usr == pytest.approx(100.0)
    assert cpu.sys == pytest.approx(250.0)


def test_account_is_charge_target():
    acc = CpuAccounting("t")
    target = acc.account("load")
    target.add(0.25)
    assert acc.seconds_by_category()["load"] == 0.25


# --- NUMA policy ---------------------------------------------------------------


def test_default_policy_spreads_execution():
    p = NumaPolicy.default()
    assert p.execution_fractions(2) == {0: 0.5, 1: 0.5}


def test_bind_policy_pins_execution():
    p = NumaPolicy.bind(1)
    assert p.execution_fractions(2) == {1: 1.0}


def test_bind_policy_multi_node():
    p = NumaPolicy.bind(0, 1)
    assert p.execution_fractions(2) == {0: 0.5, 1: 0.5}


def test_policy_requires_nodes():
    with pytest.raises(ValueError):
        NumaPolicy(NumaPolicyKind.BIND, ())
    with pytest.raises(ValueError):
        NumaPolicy(NumaPolicyKind.PREFERRED, (0, 1))


def test_allocation_first_touch():
    p = NumaPolicy.default()
    assert p.allocation_fractions(2, touch_node=1) == {1: 1.0}
    assert p.allocation_fractions(2, touch_node=None) == {0: 0.5, 1: 0.5}


def test_allocation_interleave():
    p = NumaPolicy.interleave(0, 1)
    assert p.allocation_fractions(2) == {0: 0.5, 1: 0.5}


def test_policy_nodes_outside_machine_rejected():
    p = NumaPolicy.bind(3)
    with pytest.raises(ValueError):
        p.execution_fractions(2)


def test_numactl_binding():
    proc = SimProcess(machine(), "tgt")
    numactl(proc, cpunodebind=[1], membind=[1])
    assert proc.cpu_policy == NumaPolicy.bind(1)
    assert proc.mem_policy == NumaPolicy.bind(1)


def test_numactl_interleave_membind_conflict():
    proc = SimProcess(machine(), "tgt")
    with pytest.raises(ValueError):
        numactl(proc, membind=[0], interleave=[0, 1])


# --- pages ---------------------------------------------------------------------


def test_place_region_bound():
    placement = place_region(1 << 20, NumaPolicy.bind(1), n_nodes=2)
    assert placement.node_fractions() == {1: 1.0}
    assert placement.dominant_node() == 1


def test_place_region_default_migrating():
    placement = place_region(1 << 20, NumaPolicy.default(), n_nodes=2)
    assert placement.node_fractions() == {0: 0.5, 1: 0.5}


def test_place_region_first_touch():
    placement = place_region(
        1 << 20, NumaPolicy.default(), n_nodes=2, touch_node=0
    )
    assert placement.node_fractions() == {0: 1.0}


def test_remote_fraction():
    placement = place_region(1 << 20, NumaPolicy.interleave(0, 1), n_nodes=2)
    assert remote_fraction(placement, 0) == pytest.approx(0.5)
    bound = place_region(1 << 20, NumaPolicy.bind(0), n_nodes=2)
    assert remote_fraction(bound, 0) == 0.0
    assert remote_fraction(bound, 1) == 1.0


def test_page_nodes_match_fractions():
    placement = place_region(100 * PAGE_SIZE, NumaPolicy.interleave(0, 1), 2)
    nodes = placement.page_nodes()
    assert len(nodes) == 100
    assert np.sum(nodes == 0) == 50
    assert np.sum(nodes == 1) == 50


def test_page_nodes_shuffled_reproducible():
    placement = place_region(64 * PAGE_SIZE, NumaPolicy.interleave(0, 1), 2)
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    assert (placement.page_nodes(r1) == placement.page_nodes(r2)).all()


def test_placement_fraction_validation():
    from repro.kernel.pages import RegionPlacement

    with pytest.raises(ValueError):
        RegionPlacement(100, ((0, 0.5), (1, 0.2)))


# --- work compiler ----------------------------------------------------------------


def test_build_path_cpu_cap_is_serial_rate():
    m = machine()
    proc = SimProcess(m, "p", cpu_policy=NumaPolicy.bind(0))
    t = proc.spawn_thread()
    items = [
        WorkItem("copy", cpu_per_byte=1e-9, category="copy"),
        WorkItem("proto", cpu_per_byte=3e-9, category="sys_proto"),
    ]
    spec = build_thread_path(t, items)
    assert spec.cap == pytest.approx(1.0 / 4e-9)


def test_build_path_team_scales_cap():
    m = machine()
    proc = SimProcess(m, "p", cpu_policy=NumaPolicy.bind(0))
    t = proc.spawn_thread()
    spec = build_thread_path(
        t, [WorkItem("x", cpu_per_byte=1e-9)], n_threads=4
    )
    assert spec.cap == pytest.approx(4.0 / 1e-9)


def test_build_path_bound_thread_charges_one_node():
    m = machine()
    proc = SimProcess(m, "p", cpu_policy=NumaPolicy.bind(1))
    t = proc.spawn_thread()
    spec = build_thread_path(t, [WorkItem("x", cpu_per_byte=2e-9)])
    cpu_entries = [(r, w) for r, w in spec.path if r is m.cpu_resource(1)]
    assert cpu_entries == [(m.cpu_resource(1), 2e-9)]
    assert not any(r is m.cpu_resource(0) for r, _ in spec.path)


def test_build_path_default_thread_splits_nodes():
    m = machine()
    proc = SimProcess(m, "p")  # default policy
    t = proc.spawn_thread()
    spec = build_thread_path(t, [WorkItem("x", cpu_per_byte=2e-9)])
    weights = {r.name: w for r, w in spec.path}
    assert weights[m.cpu_resource(0).name] == pytest.approx(1e-9)
    assert weights[m.cpu_resource(1).name] == pytest.approx(1e-9)


def test_build_path_mem_traffic_local():
    m = machine()
    proc = SimProcess(m, "p", cpu_policy=NumaPolicy.bind(0))
    t = proc.spawn_thread()
    item = WorkItem(
        "copy",
        cpu_per_byte=1e-9,
        mem_traffic=(WorkItem.mem({0: 1.0}, 3.0),),
    )
    spec = build_thread_path(t, [item])
    mem_w = sum(w for r, w in spec.path if r is m.mem_bank(0).bandwidth)
    assert mem_w == pytest.approx(3.0)


def test_build_path_mem_traffic_remote_crosses_qpi():
    m = machine()
    proc = SimProcess(m, "p", cpu_policy=NumaPolicy.bind(0))
    t = proc.spawn_thread()
    item = WorkItem(
        "read", mem_traffic=(WorkItem.mem({1: 1.0}, 1.0),), cpu_per_byte=1e-10
    )
    spec = build_thread_path(t, [item])
    assert any(r is m.qpi(0, 1) for r, w in spec.path)


def test_build_path_per_op_cost_amortized():
    m = machine()
    proc = SimProcess(m, "p", cpu_policy=NumaPolicy.bind(0))
    t = proc.spawn_thread()
    item = WorkItem("ctrl", cpu_per_byte=1e-9, per_op_cpu=1e-6)
    small = build_thread_path(t, [item], op_size=1e3)
    large = build_thread_path(t, [item], op_size=1e6)
    assert small.cap < large.cap  # small ops pay more per byte


def test_build_path_per_op_requires_size():
    m = machine()
    t = SimProcess(m, "p").spawn_thread()
    with pytest.raises(ValueError, match="op_size"):
        build_thread_path(t, [WorkItem("c", per_op_cpu=1e-6)])


def test_build_path_charges_accounting():
    m = machine()
    proc = SimProcess(m, "p", cpu_policy=NumaPolicy.bind(0))
    t = proc.spawn_thread()
    spec = build_thread_path(t, [WorkItem("x", cpu_per_byte=1e-9, category="copy")])
    (account, per_byte), = spec.charges
    account.add(per_byte * 1e9)  # simulate 1 GB moved
    assert t.accounting.seconds_by_category()["copy"] == pytest.approx(1.0)


def test_merge_paths_takes_min_cap():
    a = PathSpec(cap=10.0)
    b = PathSpec(cap=5.0)
    c = merge_paths(a, b)
    assert c.cap == 5.0


def test_irq_path_tuned_vs_untuned():
    m = machine()
    nic = Nic(m, m.pcie_slots[0], NicKind.ROCE_QDR)
    acc = CpuAccounting("irq")
    tuned = irq_path(nic, acc, tuned=True, rate_per_core=1e10)
    untuned = irq_path(nic, acc, tuned=False, rate_per_core=1e10)
    assert len(tuned.path) == 1
    assert tuned.path[0][0] is m.cpu_resource(nic.node)
    assert len(untuned.path) == 2


# --- property: execution fractions always sum to 1 -----------------------------


@given(
    st.sampled_from(["default", "bind0", "bind1", "bind01", "interleave"]),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_execution_fractions_normalized(kind, n_nodes):
    if kind == "default":
        p = NumaPolicy.default()
    elif kind == "bind0":
        p = NumaPolicy.bind(0)
    elif kind == "bind1":
        if n_nodes < 2:
            return
        p = NumaPolicy.bind(1)
    elif kind == "bind01":
        if n_nodes < 2:
            return
        p = NumaPolicy.bind(0, 1)
    else:
        p = NumaPolicy.interleave(*range(n_nodes))
    fracs = p.execution_fractions(n_nodes)
    assert sum(fracs.values()) == pytest.approx(1.0)
    alloc = p.allocation_fractions(n_nodes)
    assert sum(alloc.values()) == pytest.approx(1.0)
