"""Integration: scale behaviour and bottleneck identification."""

import hashlib
import time

import pytest

from repro.core.system import EndToEndSystem
from repro.core.tuning import TuningPolicy
from repro.net.link import Switch, connect
from repro.hw import Machine, Nic, NicKind
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow
from repro.util.units import GB


def test_monitor_identifies_backend_bottleneck():
    """During an end-to-end RFTP run, the *target* host's PCIe/memory is
    busier than the front-end hosts' CPUs — the SAN write path is the
    narrowest stage (§4.3)."""
    system = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=71,
                                        lun_size=2 * GB)
    sim, front, target = system.ctx.sim, system.host_a, system.target_b
    util = {}

    def steady_state():
        # Read every node's load/capacity halfway through the transfer.
        yield sim.timeout(5.0)
        cpus = [front.cpu_resource(n) for n in range(front.n_nodes)]
        banks = [target.mem_bank(n).bandwidth for n in range(target.n_nodes)]
        util["front cpu"] = max(r.load / r.capacity for r in cpus)
        util["target mem"] = max(r.load / r.capacity for r in banks)

    sim.process(steady_state())
    system.run_rftp_transfer(duration=10.0)
    # front-end CPUs are mostly idle (zero-copy protocol)
    assert util["front cpu"] < 0.5
    # the sink target is moving every byte through its banks
    assert util["target mem"] > 0.3


def test_simulation_wall_time_stays_small():
    """25 simulated minutes of the full testbed in seconds of wall time.

    This is the fluid engine's core engineering claim; regressions here
    make the benchmark harness unusable."""
    t0 = time.perf_counter()
    system = EndToEndSystem.lan_testbed(TuningPolicy.numa_bound(), seed=72,
                                        lun_size=2 * GB)
    res = system.run_rftp_transfer(duration=1500.0)
    wall = time.perf_counter() - t0
    assert res.goodput_gbps > 80
    assert wall < 30.0  # generous bound; typically < 1 s


def test_switch_backplane_oversubscription():
    """A constrained backplane caps the sum of its links' traffic."""
    ctx = Context.create(seed=73)
    a = Machine(ctx, "a", pcie_sockets=(0, 1))
    b = Machine(ctx, "b", pcie_sockets=(0, 1))
    links = []
    for i in range(2):
        na = Nic(a, a.pcie_slots[i], NicKind.ROCE_QDR)
        nb = Nic(b, b.pcie_slots[i], NicKind.ROCE_QDR)
        links.append(connect(na, nb))
    # backplane only fits 1.2x one link
    switch = Switch(ctx, "sw", backplane=1.2 * links[0].rate)
    flows = []
    for link in links:
        switch.attach(link)
        path = [(link.direction(link.a), 1.0)] + switch.extra_path()
        flow = FluidFlow(path, size=None, name=f"f-{link.name}")
        ctx.fluid.start(flow)
        flows.append(flow)
    ctx.sim.run(until=5.0)
    ctx.fluid.settle()
    total = sum(f.transferred for f in flows) / 5.0
    assert total == pytest.approx(switch.backplane.capacity, rel=1e-6)
    # fair split across the two links
    assert flows[0].transferred == pytest.approx(flows[1].transferred,
                                                 rel=1e-6)
    for f in flows:
        ctx.fluid.stop(f)


#: sha256 of the seed-1 paper-scale ledger.  A change that moves a model
#: number on purpose regenerates it with
#: ``python -m repro report --full --no-cache --seed 1 -o full.md && sha256sum full.md``.
FULL_LEDGER_SEED1_SHA256 = (
    "d4b192c6b53a27b7a74967345b66244a61b69313ac723014431d6eecabc8b877")

#: sha256 of the default-seed paper-scale ledger, checked by CI's
#: ledger-gate job (about a minute, too slow for tier-1).  A change that
#: moves a model number on purpose regenerates it with
#: ``python -m repro report --full --no-cache -o full.md && sha256sum full.md``.
FULL_LEDGER_SHA256 = (
    "64a7fe62731bafbde08cf9e94ca0f8016032224d95d2d5976995762662da8a16")


def test_full_mode_ledger_generates():
    """REPRO_FULL-equivalent: the whole paper-scale ledger in one call."""
    from repro.core.reportgen import generate_experiments_md

    text = generate_experiments_md(quick=False, seed=1)
    line = next(ln for ln in text.splitlines() if "Scorecard" in ln)
    ok, total = line.split("Scorecard:")[1].split()[0].split("/")
    assert ok == total
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == FULL_LEDGER_SEED1_SHA256, "the paper-scale ledger moved"
