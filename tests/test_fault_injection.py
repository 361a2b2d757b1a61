"""Fault injection: link failures, the repro.faults subsystem (plans,
injector, both fault kinds), RFTP recovery/failover, and the
differential guarantee (empty plan == no subsystem)."""

import numpy as np
import pytest

from repro.apps.rftp.transfer import RftpConfig, RftpTransfer
from repro.config import RunConfig
from repro.faults import FaultInjector, FaultPlan, FaultSpec, backoff
from repro.hw import Machine, Nic, NicKind, frontend_lan_host
from repro.net.link import connect
from repro.net.topology import wire_frontend_lan
from repro.sim.context import Context
from repro.util.units import MIB, to_gbps


def pair(seed=61, faults=None):
    ctx = Context.create(seed=seed)
    if faults is not None:
        FaultInjector(ctx, FaultPlan.parse(faults))
    a = Machine(ctx, "a", pcie_sockets=(0,))
    b = Machine(ctx, "b", pcie_sockets=(0,))
    na = Nic(a, a.pcie_slots[0], NicKind.ROCE_QDR)
    nb = Nic(b, b.pcie_slots[0], NicKind.ROCE_QDR)
    link = connect(na, nb)
    return ctx, a, b, link


METRO_CFG = RftpConfig(block_size=2 * MIB, streams_per_link=2, credits=2)


def metro_pair(seed=70, faults=None):
    """Three 2.5 ms rails: the credit-bound regime where failover shows."""
    ctx = Context.create(seed=seed)
    if faults is not None:
        FaultInjector(ctx, FaultPlan.parse(faults))
    a = frontend_lan_host(ctx, "a")
    b = frontend_lan_host(ctx, "b")
    from repro.net.topology import _nics

    links = [
        connect(c, s, delay=2.5e-3, name=f"metro{i}")
        for i, (c, s) in enumerate(
            zip(_nics(a, NicKind.ROCE_QDR), _nics(b, NicKind.ROCE_QDR))
        )
    ]
    return ctx, a, b, links


def run_metro_rftp(ctx, a, b, duration=30.0, config=METRO_CFG):
    xfer = RftpTransfer(ctx, a, b, source="zero", sink="null", config=config)
    return xfer.run(duration, sample_interval=0.5)


def rate_between(series, t0, t1):
    t = np.asarray(series.times)
    v = np.asarray(series.values)
    mask = (t > t0) & (t <= t1)
    return float(v[mask].mean())


def test_link_fail_and_restore_flags():
    ctx, a, b, link = pair()
    assert not link.failed
    link.fail()
    assert link.failed and link.rate == 0.0
    link.restore()
    assert not link.failed
    assert link.rate == pytest.approx(link._nominal_rate)


def test_transfer_stalls_during_outage_and_resumes():
    ctx, a, b, link = pair(seed=62)
    xfer = RftpTransfer(ctx, a, b, source="zero", sink="null",
                        config=RftpConfig(streams_per_link=2))
    xfer.start()

    def chaos():
        yield ctx.sim.timeout(5.0)
        link.fail()
        yield ctx.sim.timeout(5.0)
        link.restore()

    ctx.sim.process(chaos())
    ctx.sim.run(until=5.0)
    ctx.fluid.settle()
    before_outage = xfer.transferred()
    ctx.sim.run(until=10.0)
    ctx.fluid.settle()
    during_outage = xfer.transferred()
    ctx.sim.run(until=15.0)
    ctx.fluid.settle()
    after_restore = xfer.transferred()
    xfer.stop()

    assert during_outage == pytest.approx(before_outage)  # fully stalled
    resumed_rate = (after_restore - during_outage) / 5.0
    assert to_gbps(resumed_rate) > 35  # back at line rate


def test_one_failed_link_of_three_drops_aggregate_by_a_third():
    ctx = Context.create(seed=64)
    a = frontend_lan_host(ctx, "a")
    b = frontend_lan_host(ctx, "b")
    links = wire_frontend_lan(a, b)
    xfer = RftpTransfer(ctx, a, b, source="zero", sink="null",
                        config=RftpConfig(streams_per_link=2))
    xfer.start()
    ctx.sim.run(until=5.0)
    ctx.fluid.settle()
    healthy = xfer.transferred() / 5.0
    links[1].fail()
    start = xfer.transferred()
    ctx.sim.run(until=10.0)
    ctx.fluid.settle()
    degraded = (xfer.transferred() - start) / 5.0
    xfer.stop()
    assert degraded == pytest.approx(healthy * 2.0 / 3.0, rel=0.03)


def test_determinism_same_seed_same_result():
    """Two identical runs produce byte-identical outcomes."""
    results = []
    for _ in range(2):
        ctx, a, b, link = pair(seed=65)
        xfer = RftpTransfer(ctx, a, b, source="zero", sink="null",
                            config=RftpConfig(streams_per_link=2))
        res = xfer.run(10.0)
        results.append((res.total_bytes,
                        res.sender_accounting.total_seconds))
    assert results[0] == results[1]


def test_determinism_experiments():
    from repro.core.experiments import exp_fig09_e2e

    r1 = exp_fig09_e2e.run(quick=True, seed=5)
    r2 = exp_fig09_e2e.run(quick=True, seed=5)
    assert [c.measured for c in r1.checks] == [c.measured for c in r2.checks]

# --- Link fault semantics ---------------------------------------------------------


def test_link_fail_is_idempotent():
    ctx, a, b, link = pair(seed=66)
    link.fail()
    link.fail()  # second call must be a no-op, not an error
    assert link.failed and link.rate == 0.0
    link.restore()
    assert not link.failed
    assert link.rate == pytest.approx(link._nominal_rate)


def test_recovery_config_backoff_caps():
    assert backoff(0) == pytest.approx(0.1)
    assert backoff(3) == pytest.approx(0.8)
    assert backoff(10) == pytest.approx(2.0)  # capped


# --- Fault plans: parsing, validation, canonical form -----------------------------


def test_fault_spec_parse_fields_and_aliases():
    spec = FaultSpec.parse("link-down@link:1,at=5,duration=2")
    assert (spec.kind, spec.target) == ("link-down", "link:1")
    assert (spec.at, spec.duration, spec.stagger) == (5.0, 2.0, 0.0)
    assert (spec.category, spec.selector) == ("link", "1")
    # each field has exactly one spelling
    for alias in ("t=5", "dur=2", "mag=0.5", "n=3"):
        with pytest.raises(ValueError, match="bad fault field"):
            FaultSpec.parse(f"link-down@link:1,{alias}")


BAD_CLAUSES = [
    ("meteor-strike@link:0", "unknown fault kind"),
    # kinds no experiment ran are gone, not silently accepted
    ("nic-down@link:2,at=8", "unknown fault kind"),
    ("degrade@link:0,at=1", "unknown fault kind"),
    ("qp-error@link:1,at=1", "unknown fault kind"),
    ("link-down@link:0,magnitude=0.5", "bad fault field"),
    ("link-down@link:0,period=4", "bad fault field"),
    ("link-down@ssd:0,at=1", "category"),
    ("link-down@volcano:0", "category"),
    ("link-down@link:0,frobnicate=1", "bad fault field"),
    ("link-down", "kind@target"),
    ("link-down@link:0,at=-1", "at must be finite and >= 0"),
    ("link-down@link:0,at=oops", "at must be a number"),
    # a kind only targets what it can act on
    ("link-down@transfer:*,at=1", "link-down cannot target 'transfer'"),
    ("crash@link:0,at=1", "crash cannot target 'link'"),
    ("crash@tor:0,at=1", "crash cannot target 'tor'"),
    # non-finite timing would fire at t=0 or never
    ("link-down@link:0,at=nan", "at must be finite"),
    ("link-down@link:0,at=inf", "at must be finite"),
    ("link-down@link:0,duration=nan", "duration must be finite"),
    ("link-down@tor:0,stagger=inf", "stagger must be finite"),
]


def test_fault_spec_validation():
    for clause, match in BAD_CLAUSES:
        with pytest.raises(ValueError, match=match):
            FaultSpec.parse(clause)


def test_fault_plan_parse_and_canonical():
    plan = FaultPlan.parse(
        "link-down@link:1,at=5,duration=2; crash@transfer:*,at=7")
    assert len(plan.specs) == 2 and not plan.empty
    # two spellings of the same plan share one canonical form (= cache key)
    other = FaultPlan.parse(
        "link-down@link:1,duration=2,at=5.0;crash@transfer:*,at=7,duration=0")
    assert plan.canonical() == other.canonical()
    assert FaultPlan.parse("").empty
    assert FaultPlan.parse(" ; ").empty
    with pytest.raises(TypeError):
        FaultPlan(("not a spec",))


def test_run_config_parses_the_fault_plan():
    assert RunConfig.from_env({}).faults is None
    assert RunConfig.from_env({"REPRO_FAULTS": "  "}).faults is None
    plan = RunConfig.from_env({"REPRO_FAULTS": "link-down@link:2,at=8"}).faults
    assert plan is not None and plan.specs[0].kind == "link-down"
    with pytest.raises(ValueError, match="REPRO_FAULTS bad fault field"):
        RunConfig.from_env({"REPRO_FAULTS": "link-down@link:2,when=8"})


# --- Injector mechanics -----------------------------------------------------------


def test_injector_attaches_once():
    ctx = Context.create(seed=68)
    FaultInjector(ctx, FaultPlan(()))
    with pytest.raises(RuntimeError):
        FaultInjector(ctx, FaultPlan(()))


def test_unresolved_target_counts():
    ctx, a, b, link = pair(seed=69, faults="link-down@link:9,at=1")
    ctx.sim.run(until=2.0)
    assert ctx.faults.stats.unresolved == 1
    assert ctx.faults.stats.faults_injected == 0
    assert not link.failed


# --- RFTP recovery under injected faults (metro testbed) --------------------------


def test_short_blip_stalls_without_recovery():
    """An outage shorter than the block-ack timeout is just a stall."""
    ctx, a, b, links = metro_pair(
        seed=75, faults="link-down@link:1,at=10,duration=0.1")
    res = run_metro_rftp(ctx, a, b, duration=20.0)
    assert res.streams_failed == 0
    assert res.reconnects == 0
    assert res.retransmitted_bytes == 0.0
    assert ctx.faults.stats.faults_injected == 1


def test_nic_down_failover_recovers_goodput():
    """Survivors absorb the dead rail's credit budget: goodput returns."""
    # a permanent outage (no duration) is a dead NIC
    ctx, a, b, links = metro_pair(seed=76, faults="link-down@link:1,at=10")
    res = run_metro_rftp(ctx, a, b, duration=30.0)
    pre = rate_between(res.series, 2.0, 10.0)
    post = rate_between(res.series, 20.0, 30.0)
    assert to_gbps(pre) > 35  # credit-bound aggregate, all three rails
    assert post >= 0.9 * pre  # failover recovered the goodput
    assert res.streams_failed == 2  # both streams of the dead rail
    # each dead stream retransmits its full credit window
    assert res.retransmitted_bytes == pytest.approx(2 * 2 * 2 * MIB)
    assert res.reconnects == 0  # the NIC never comes back
    assert ctx.faults.stats.giveups == 1


def test_link_flap_reconnects():
    """A transient outage: failover first, CM reconnect once it returns."""
    ctx, a, b, links = metro_pair(
        seed=77, faults="link-down@link:1,at=10,duration=3")
    res = run_metro_rftp(ctx, a, b, duration=30.0)
    pre = rate_between(res.series, 2.0, 10.0)
    post = rate_between(res.series, 20.0, 30.0)
    assert res.reconnects == 1
    assert res.streams_failed == 2
    # outage (3 s) + capped exponential backoff overshoot
    assert 2.5 < res.recovery_seconds < 4.5
    assert post >= 0.9 * pre
    assert not links[1].failed


def test_crash_kills_and_restarts_all_rails():
    ctx, a, b, links = metro_pair(
        seed=79, faults="crash@transfer:rftp,at=10,duration=1")
    res = run_metro_rftp(ctx, a, b, duration=30.0)
    pre = rate_between(res.series, 2.0, 10.0)
    post = rate_between(res.series, 20.0, 30.0)
    assert res.streams_failed == 6  # every stream of every rail
    assert res.reconnects == 3  # every rail re-established
    assert post >= 0.9 * pre


# --- Differential guarantees ------------------------------------------------------


def _reference_run(attach_empty_injector: bool):
    ctx = Context.create(seed=81)
    if attach_empty_injector:
        FaultInjector(ctx, FaultPlan(()))
    a = frontend_lan_host(ctx, "a")
    b = frontend_lan_host(ctx, "b")
    wire_frontend_lan(a, b)
    xfer = RftpTransfer(ctx, a, b, source="zero", sink="null",
                        config=RftpConfig(streams_per_link=2))
    res = xfer.run(10.0)
    return (
        res.total_bytes,
        tuple(sorted(res.sender_accounting.seconds_by_category().items())),
        tuple(sorted(res.receiver_accounting.seconds_by_category().items())),
        tuple(res.series.times),
        tuple(res.series.values),
    )


def test_empty_plan_is_byte_identical():
    """An empty-plan injector is indistinguishable from no injector."""
    assert _reference_run(False) == _reference_run(True)


# --- rkey registry scoping & cache identity ---------------------------------------


def test_rkey_registry_scoped_per_context():
    from repro.kernel import NumaPolicy, place_region
    from repro.rdma import ConnectionManager, ProtectionDomain

    c1 = Context.create(seed=83)
    m1 = Machine(c1, "a", pcie_sockets=(0,))
    pd = ProtectionDomain(m1)
    mr = pd.register(place_region(MIB, NumaPolicy.bind(0), m1.n_nodes))
    ConnectionManager.register_pd(pd)
    assert ConnectionManager.lookup_rkey(m1, mr.rkey) is mr
    # a fresh context's machine sees none of c1's registrations
    c2 = Context.create(seed=84)
    m2 = Machine(c2, "a", pcie_sockets=(0,))
    assert not c2.rkeys
    with pytest.raises(PermissionError):
        ConnectionManager.lookup_rkey(m2, mr.rkey)


def test_cache_identity_includes_fault_plan():
    from repro.exec import SimTask

    def task(plan):
        return SimTask("repro.core.reportgen:run_whole_experiment",
                       {"registry": "figures", "name": "fig09",
                        "quick": True}, faults=plan)

    base = task(None).identity()
    # no plan and an empty plan key identically (both fault-free)
    assert task(FaultPlan.parse("")).identity() == base
    # a real plan changes the identity; its spelling does not
    faulted = task(FaultPlan.parse("link-down@link:1,at=5")).identity()
    assert faulted != base
    assert (task(FaultPlan.parse("link-down@link:1,at=5.0,duration=0"))
            .identity() == faulted)