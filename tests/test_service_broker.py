"""Broker admission, scheduling, sessions, cancellation, fault recovery."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.service import (BrokerConfig, RailFleet, TransferBroker,
                           WorkloadConfig)
from repro.service.broker import TENANT_QUOTA
from repro.sim.context import Context
from repro.util.units import GIB, MIB


def _broker(seed=0, faults="", n_hosts=1, **cfg):
    ctx = Context.create(seed=seed)
    if faults:
        FaultInjector(ctx, FaultPlan.parse(faults))
    fleet = RailFleet(ctx, n_hosts=n_hosts)
    return ctx, fleet, TransferBroker(ctx, fleet, BrokerConfig(**cfg))


def test_jobs_run_and_complete():
    ctx, fleet, broker = _broker()
    jid = broker.submit("t0", 512 * MIB, touch_node=0)
    assert broker.session(jid)["state"] == "running"
    ctx.sim.run(until=5.0)
    s = broker.session(jid)
    assert s["state"] == "completed"
    assert s["transferred"] == pytest.approx(512 * MIB)
    assert broker.stats.completed == 1
    assert broker.sessions() == []  # nothing live


def test_over_quota_job_queues_rather_than_sheds():
    # Two hosts: the budget (1.5 x 6 rails) admits 9 jobs, one past the
    # quota, so the quota is what binds.
    ctx, fleet, broker = _broker(n_hosts=2)
    jids = [broker.submit("hog", 1 * GIB) for _ in range(TENANT_QUOTA + 1)]
    states = [broker.session(j)["state"] for j in jids]
    assert states == ["running"] * TENANT_QUOTA + ["queued"]
    assert broker.stats.shed == 0
    # an under-quota tenant is not head-of-line blocked by the hog
    other = broker.submit("small", 64 * MIB)
    assert broker.session(other)["state"] == "running"
    # once a hog job finishes, the queued one is admitted
    ctx.sim.run(until=10.0)
    assert broker.session(jids[-1])["state"] == "completed"


def test_full_queue_sheds_the_newcomer():
    # The budget (1.5 x 3 rails) runs four jobs; the fifth fills the
    # one-slot queue, and the sixth finds it full.
    ctx, fleet, broker = _broker(max_queue=1)
    jids = [broker.submit("t0", 1 * GIB) for _ in range(6)]
    states = [broker.session(j)["state"] for j in jids[:5]]
    assert states == ["running"] * 4 + ["queued"]
    assert jids[5] is None
    assert broker.stats.shed == 1
    assert broker.tenants["t0"]["shed"] == 1
    # shed is terminal: accounting conserves without it ever running
    ctx.sim.run(until=10.0)
    assert broker.stats.completed == 5


def test_bandwidth_budget_bounds_concurrency():
    # budget = 1.5 x 3 rails = 4.5 nominal rails -> exactly four jobs
    # run, one tenant each, so no quota binds
    ctx, fleet, broker = _broker()
    jids = [broker.submit(f"t{i}", 1 * GIB) for i in range(5)]
    states = [broker.session(j)["state"] for j in jids]
    assert states == ["running"] * 4 + ["queued"]
    assert broker.running == 4


def test_cancel_running_job_reclaims_credits():
    ctx, fleet, broker = _broker()
    j1, *_ = [broker.submit(f"a{i}", 10 * GIB) for i in range(4)]
    j2 = broker.submit("b", 64 * MIB)  # over budget: queues
    ctx.sim.run(until=0.5)
    assert broker.session(j2)["state"] == "queued"
    assert broker.cancel(j1) is True
    s1 = broker.session(j1)
    assert s1["state"] == "cancelled"
    assert 0 < s1["transferred"] < 10 * GIB  # partial bytes retained
    # the reclaimed budget admits the queued job immediately
    assert broker.session(j2)["state"] == "running"
    ctx.sim.run(until=5.0)
    assert broker.session(j2)["state"] == "completed"
    assert broker.stats.cancelled == 1
    # cancelling a terminal job is a no-op
    assert broker.cancel(j1) is False


def test_cancel_queued_job():
    ctx, fleet, broker = _broker()
    for i in range(4):
        broker.submit(f"a{i}", 1 * GIB)
    j2 = broker.submit("b", 1 * GIB)
    assert broker.cancel(j2) is True
    assert broker.session(j2)["state"] == "cancelled"
    assert broker.queued == 0


def test_sessions_lists_live_jobs_with_tenant_filter():
    ctx, fleet, broker = _broker()
    broker.submit("a", 1 * GIB, touch_node=1)
    broker.submit("b", 1 * GIB)
    live = broker.sessions()
    assert [s["tenant"] for s in live] == ["a", "b"]
    assert all(s["state"] == "running" for s in live)
    only_a = broker.sessions(tenant="a")
    assert len(only_a) == 1 and only_a[0]["tenant"] == "a"
    with pytest.raises(KeyError):
        broker.session(999)


def test_numa_aware_binds_buffer_to_rail_node():
    ctx, fleet, broker = _broker(policy="numa-aware")
    for _ in range(3):
        broker.submit("t", 256 * MIB, touch_node=1)
    assert broker.stats.remote_placements == 0
    for s in broker.sessions():
        assert s["buffer_node"] is not None
        assert s["buffer_node"] == fleet.rails[s["rail"]].node


def test_numa_blind_pays_remote_placements():
    ctx, fleet, broker = _broker(policy="numa-blind")
    # rails 0,1 hang off node 0; a node-1 buffer on them is remote
    for _ in range(3):
        broker.submit("t", 256 * MIB, touch_node=1)
    assert broker.stats.remote_placements == 2


def test_rail_failure_reschedules_jobs():
    ctx, fleet, broker = _broker(faults="link-down@link:0,at=1.0")
    jids = [broker.submit("t", 8 * GIB) for _ in range(3)]
    placed = {broker.session(j)["rail"] for j in jids}
    assert placed == {0, 1, 2}  # least-loaded spreads one per rail
    ctx.sim.run(until=30.0)
    assert not fleet.rails[0].alive
    assert broker.stats.rescheduled == 1
    for j in jids:
        s = broker.session(j)
        assert s["state"] == "completed"
        assert s["transferred"] == pytest.approx(8 * GIB)
    moved = [broker.session(j) for j in jids
             if broker.session(j)["reschedules"]]
    assert len(moved) == 1
    assert moved[0]["rail"] is None  # released on completion


def test_link_restore_revives_rail():
    ctx, fleet, broker = _broker(
        faults="link-down@link:0,at=1.0,duration=2.0")
    ctx.sim.run(until=2.0)
    assert not fleet.rails[0].alive
    ctx.sim.run(until=5.0)
    assert fleet.rails[0].alive
    # new work lands on the revived rail again (least-loaded tie -> 0)
    jid = broker.submit("t", 64 * MIB)
    assert broker.session(jid)["rail"] == 0


def test_same_seed_brokered_runs_are_identical():
    def _run():
        ctx = Context.create(seed=11)
        fleet = RailFleet(ctx, n_hosts=1)
        broker = TransferBroker(ctx, fleet, BrokerConfig(),
                                workload=WorkloadConfig(rate=30.0,
                                                        size_mean=64 * MIB))
        broker.serve()
        ctx.sim.run(until=10.0)
        broker.drain()
        ctx.sim.run(until=20.0)
        return broker.summary()

    assert _run() == _run()


def test_idle_broker_leaves_existing_runs_byte_identical():
    """A constructed-but-unserved broker must not perturb other traffic.

    This is the differential guard for wiring the service layer into
    shared contexts: fleet construction registers links and resources
    but schedules nothing and draws no RNG, so an existing transfer's
    results stay byte-identical with the broker present.
    """
    from repro.apps.rftp.transfer import RftpConfig, RftpTransfer
    from repro.hw.nic import NicKind
    from repro.hw.presets import frontend_lan_host
    from repro.net.link import connect
    from repro.net.topology import _nics

    def _run(with_idle_broker):
        ctx = Context.create(seed=5)
        if with_idle_broker:
            fleet = RailFleet(ctx, n_hosts=1)
            broker = TransferBroker(
                ctx, fleet, BrokerConfig(),
                workload=WorkloadConfig())  # constructed, never served
        a = frontend_lan_host(ctx, "xfer-a")
        b = frontend_lan_host(ctx, "xfer-b")
        for c, s in zip(_nics(a, NicKind.ROCE_QDR), _nics(b, NicKind.ROCE_QDR)):
            connect(c, s, delay=83e-6)
        xfer = RftpTransfer(ctx, a, b, source="zero", sink="null",
                            config=RftpConfig())
        res = xfer.run(10.0, sample_interval=1.0)
        return (res.goodput_gbps, list(res.series.times),
                list(res.series.values))

    assert _run(False) == _run(True)
