"""Broker crash tolerance: journaled vs amnesiac restart, paced
recovery, and the fault-edge cases (correlated rail deaths, crash with
banked requeued work)."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.service import BrokerConfig, RailFleet, TransferBroker
from repro.service.broker import RECOVERY_RATE
from repro.sim.context import Context
from repro.util.units import GIB, MIB


def _broker(seed=0, faults="", **cfg):
    ctx = Context.create(seed=seed)
    if faults:
        FaultInjector(ctx, FaultPlan.parse(faults))
    fleet = RailFleet(ctx, n_hosts=1)
    return ctx, fleet, TransferBroker(ctx, fleet, BrokerConfig(**cfg))


# --- journal lifecycle ------------------------------------------------------------


def test_journal_only_exists_under_an_armed_injector():
    _ctx, _fleet, plain = _broker()
    assert plain.journal is None  # fault-free runs pay zero journal cost
    _ctx2, _fleet2, armed = _broker(faults="crash@transfer:*,at=1,duration=0.5")
    assert armed.journal is not None
    _ctx3, _fleet3, off = _broker(
        faults="crash@transfer:*,at=1,duration=0.5", journal=False)
    assert off.journal is None


def test_crash_drops_submissions():
    ctx, fleet, broker = _broker(faults="crash@transfer:*,at=1,duration=1")
    ctx.sim.run(until=1.5)
    assert broker.submit("t0", 64 * MIB) is None
    assert broker.stats.dropped == 1
    assert broker.cancel(0) is False  # nobody is listening
    ctx.sim.run(until=3.0)
    assert broker.submit("t0", 64 * MIB) is not None  # back after restart


def _crash_fixture(journal):
    """4 running + 2 queued jobs, broker crash at 1 s, restart at 1.5 s."""
    ctx, fleet, broker = _broker(
        faults="crash@transfer:*,at=1,duration=0.5",
        journal=journal)  # the budget (1.5 x 3 rails) runs 4
    jids = [broker.submit(f"tenant{i}", 8 * GIB) for i in range(6)]
    assert broker.running == 4 and broker.queued == 2
    ctx.sim.run(until=30.0)
    return broker, jids


def test_journaled_restart_loses_nothing():
    broker, jids = _crash_fixture(journal=True)
    s = broker.stats
    assert s.crashes == 1
    assert s.lost == 0 and s.lost_bytes == 0.0
    assert s.replayed > 0  # the rebuilt backlog was replayed
    assert s.completed == 6
    for j in jids:
        row = broker.session(j)
        assert row["state"] == "completed"
        assert row["transferred"] == pytest.approx(8 * GIB)
    audit = broker.audit()
    assert audit["jobs_conserved"] and audit["completions_exact"]
    assert audit["bytes_exact"]
    assert audit["journaled"] and audit["journal_records"] > 0


def test_amnesiac_restart_loses_the_backlog_and_the_flows():
    broker, jids = _crash_fixture(journal=False)
    s = broker.stats
    assert s.crashes == 1
    assert s.completed == 0
    assert s.lost == 6  # 4 orphaned flows torn down + 2 vanished queued
    assert s.lost_bytes > 0.0  # the orphans had already moved bytes
    states = {broker.session(j)["state"] for j in jids}
    assert states == {"lost"}
    audit = broker.audit()
    assert audit["jobs_conserved"]  # lost is a terminal state, conserved
    assert not audit["journaled"]


def test_pending_completion_reconciled_exactly_once():
    """A flow finishing during the outage is late-completed at restart
    (journaled) with its bytes accounted exactly once."""
    ctx, fleet, broker = _broker(faults="crash@transfer:*,at=1,duration=3")
    jid = broker.submit("t0", 8 * GIB)  # finishes ~1.6 s: mid-outage
    ctx.sim.run(until=10.0)
    s = broker.stats
    row = broker.session(jid)
    assert row["state"] == "completed"
    assert s.completed == 1 and s.replayed == 1
    assert s.bytes_completed == pytest.approx(8 * GIB)
    # The latency honestly includes the outage: observed only at restart.
    assert row["finished_at"] == pytest.approx(4.0)
    assert broker.audit()["bytes_exact"]


def test_recovery_pacer_spaces_backlog_restarts():
    """Post-restart the backlog drains at RECOVERY_RATE, not as a herd."""
    ctx, fleet, broker = _broker(faults="crash@transfer:*,at=1,duration=3")
    # The budget (1.5 x 3 rails) runs four; all complete mid-outage.
    for i in range(4):
        broker.submit(f"tenant{i}", 8 * GIB)
    queued = [broker.submit(f"tenant{i + 4}", 1 * GIB) for i in range(4)]
    assert broker.queued == 4
    ctx.sim.run(until=30.0)
    starts = sorted(broker.session(j)["started_at"] for j in queued)
    assert starts[0] == pytest.approx(4.0)  # restart instant
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert all(g == pytest.approx(1.0 / RECOVERY_RATE) for g in gaps)
    assert broker.stats.completed == 8 and broker.stats.lost == 0


# --- fault-edge cases (the satellite checklist) -----------------------------------


def test_two_rails_dying_in_the_same_settle_epoch():
    ctx, fleet, broker = _broker(
        faults="link-down@link:svc0-rail0,at=1.0;"
               "link-down@link:svc0-rail2,at=1.0")  # rails[0] and rails[1]
    jids = [broker.submit("t", 8 * GIB) for _ in range(3)]
    ctx.sim.run(until=1.1)
    assert [r.alive for r in fleet.rails] == [False, False, True]
    ctx.sim.run(until=60.0)
    # Both deaths land at the same instant but process sequentially:
    # rail 0's victim hops onto rail 1 just before rail 1's own death
    # event fires, so it is rescheduled twice (3 total, not 2).
    assert broker.stats.rescheduled == 3
    for j in jids:
        row = broker.session(j)
        assert row["state"] == "completed"
        assert row["transferred"] == pytest.approx(8 * GIB)
    audit = broker.audit()
    assert audit["jobs_conserved"] and audit["bytes_exact"]


def test_crash_with_requeued_banked_jobs_in_the_queue():
    """Rail death banks partial bytes and requeues; a crash right after
    must preserve the banked bytes through the journal rebuild."""
    ctx, fleet, broker = _broker(
        # Every rail is down until 3.0: the victim stays queued across
        # the crash and the restart at 2.1.
        faults="link-down@link:*,at=1.0,duration=2.0;"
               "crash@transfer:*,at=1.1,duration=1.0")
    jid = broker.submit("t0", 8 * GIB)
    ctx.sim.run(until=1.05)
    row = broker.session(jid)
    assert row["state"] == "queued" and row["transferred"] > 0  # banked
    banked_at_requeue = row["transferred"]
    ctx.sim.run(until=30.0)
    row = broker.session(jid)
    assert row["state"] == "completed"
    assert row["transferred"] == pytest.approx(8 * GIB)
    s = broker.stats
    assert s.crashes == 1 and s.lost == 0
    assert s.bytes_completed == pytest.approx(8 * GIB)  # exactly once
    assert banked_at_requeue > 0
    audit = broker.audit()
    assert audit["jobs_conserved"] and audit["bytes_exact"]
