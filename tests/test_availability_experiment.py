"""The ext-availability experiment: plan shape, the deterministic
fault-plan generator, and a small end-to-end leg."""

import json

from repro.core.experiments import ext_availability
from repro.core.experiments.availability_legs import (availability_leg,
                                                      fault_plan_for)
from repro.faults.plan import FaultPlan, fault_scope, scoped_plan


def test_plan_shape():
    tasks = ext_availability.plan(quick=True, seed=0)
    # 1 size x 2 rates x 2 variants + the MTTR pair + determinism
    assert len(tasks) == 7
    labels = [t.label for t in tasks]
    assert labels == [
        "avail/journaled-x16-r0.5", "avail/amnesiac-x16-r0.5",
        "avail/journaled-x16-r1", "avail/amnesiac-x16-r1",
        "avail/mttr-journaled", "avail/mttr-amnesiac",
        "avail/determinism",
    ]
    # journaled/amnesiac pairs share a seed: same workload, same faults
    assert tasks[0].seed == tasks[1].seed
    assert tasks[2].seed == tasks[3].seed
    assert tasks[4].seed == tasks[5].seed


def test_plan_identities_are_stable():
    a = [t.identity() for t in ext_availability.plan(quick=True, seed=0)]
    b = [t.identity() for t in ext_availability.plan(quick=True, seed=0)]
    assert a == b
    assert len(set(a)) == len(a)  # no colliding cache keys


def test_fault_plan_for_is_deterministic_and_parses():
    kw = dict(n_pods=8, fault_rate=0.5, serve_s=4.0, crash_at=2.0)
    plan = fault_plan_for(**kw)
    assert plan == fault_plan_for(**kw)
    specs = FaultPlan.parse(plan).specs
    tor = [s for s in specs if s.category == "tor"]
    crash = [s for s in specs if s.kind == "crash"]
    assert len(tor) == 4  # round(0.5 x 8) evenly-spaced pod cuts
    assert len({s.selector for s in tor}) == 4  # distinct pods
    assert all(s.stagger > 0 for s in tor)
    assert len(crash) == 1 and crash[0].target == "transfer:*"
    # rate 0 with no crash is the empty plan
    assert fault_plan_for(n_pods=8, fault_rate=0.0, serve_s=4.0) == ""


def test_availability_leg_journal_beats_amnesia():
    """One small curve point end-to-end: the crash makes the difference.

    Same seed, same faults: the journaled broker must conserve jobs and
    bytes exactly; the amnesiac baseline loses work to the restart.
    """
    kw = dict(seed=4, cal=None, hosts=8, fault_rate=0.5)
    journaled = availability_leg(journal=True, **kw)
    amnesiac = availability_leg(journal=False, **kw)
    assert journaled["submitted"] == amnesiac["submitted"]  # same stream
    assert journaled["crashes"] >= 1 and amnesiac["crashes"] >= 1
    assert journaled["lost"] == 0 and journaled["audit_ok"]
    assert journaled["conserved"] and amnesiac["conserved"]
    assert amnesiac["lost"] > 0 and amnesiac["lost_bytes"] > 0.0
    assert journaled["availability"] >= amnesiac["availability"]
    # The leg is deterministic: same kwargs, same scorecard.
    again = availability_leg(journal=True, **kw)
    assert json.dumps(journaled, sort_keys=True) == json.dumps(
        again, sort_keys=True)


def test_leg_restores_ambient_fault_env():
    """The leg arms its own plan (crash included) under a run-wide one,
    and leaves the run-wide plan in place for whatever runs next."""
    run_wide = FaultPlan.parse("link-down@link:0,at=5,duration=1")
    kw = dict(seed=2, cal=None, hosts=8, fault_rate=0.0, journal=True)
    alone = availability_leg(**kw)
    with fault_scope(run_wide):
        scoped = availability_leg(**kw)
        assert scoped_plan() == run_wide
    assert scoped["crashes"] >= 1
    assert json.dumps(scoped, sort_keys=True) == json.dumps(
        alone, sort_keys=True)
