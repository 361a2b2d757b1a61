"""Churn coalescing: bulk lifecycle fast path, burst determinism.

The coalescing contract (MODELING.md §13): flow transitions inside one
simulation instant settle immediately but defer their rebalance to a
single flush when the event clock advances or a reader needs rates —
and nothing observable changes.  These tests pin

* the engine's advance hooks (flush points at clock advance and every
  ``run()`` exit),
* the bulk ``start_many``/``finish_many`` API and the rate/load
  read-triggered flush,
* burst-arrival determinism: same-seed, same-timestamp arrival bursts
  produce identical ledgers under the eager oracle
  (:class:`EagerFluidScheduler`) and the coalescing production kernel,
  under both allocator dispatch paths, and across shard counts.
"""

import json

import pytest

from repro.exec.runner import executor
from repro.service import (BrokerConfig, RailFleet, TransferBroker,
                           WorkloadConfig)
from repro.service.fabric import FabricSpec, run_fabric
from repro.service.workload import WorkloadGenerator
from repro.sim import context, fluid
from repro.sim.context import Context
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidFlow, FluidResource, FluidScheduler
from repro.util.units import MIB


class EagerFluidScheduler(FluidScheduler):
    """The oracle: every transition rebalances at once, nothing deferred."""

    def _after_change(self) -> None:
        self._rebalance()

# --- engine advance hooks ------------------------------------------------------


def test_advance_hook_runs_before_clock_advances():
    sim = Simulator()
    seen = []
    sim.add_advance_hook(lambda: seen.append(sim.now))
    sim.timeout(1.0)
    sim.timeout(1.0)  # same instant: one flush covers both
    sim.timeout(2.0)
    sim.run()
    # fired before leaving t=0, t=1, t=2 (and at the drain boundary)
    assert seen[0] == 0.0
    assert 1.0 in seen and 2.0 in seen


def test_advance_hook_scheduled_events_are_drained():
    sim = Simulator()
    fired = []

    def hook():
        if not fired:
            fired.append(sim.now)
            sim.timeout(3.0).add_callback(lambda ev: fired.append(sim.now))

    sim.add_advance_hook(hook)
    sim.timeout(1.0)
    sim.run()  # the hook-scheduled timeout must still run
    assert fired == [0.0, 3.0]
    assert sim.now == 3.0


# --- coalesced scheduler semantics ---------------------------------------------


def test_same_instant_burst_coalesces_to_one_rebalance():
    sim = Simulator()
    fl = FluidScheduler(sim)
    res = FluidResource(fl, 100.0, "link")
    flows = [FluidFlow([(res, 1.0)], size=50.0, name=f"f{i}")
             for i in range(8)]
    fl.start_many(flows)
    assert fl.stats.rebalances == 0  # deferred
    fl.flush()
    assert fl.stats.rebalances == 1  # one pass covered all eight
    assert flows[0].rate == pytest.approx(100.0 / 8)


def test_eager_burst_rebalances_per_transition():
    sim = Simulator()
    fl = EagerFluidScheduler(sim)
    res = FluidResource(fl, 100.0, "link")
    flows = [FluidFlow([(res, 1.0)], size=50.0, name=f"f{i}")
             for i in range(8)]
    fl.start_many(flows)
    assert fl.stats.rebalances == 8
    assert flows[0]._rate == pytest.approx(100.0 / 8)  # already settled


def test_rate_read_flushes_pending_rebalance():
    sim = Simulator()
    fl = FluidScheduler(sim)
    res = FluidResource(fl, 100.0, "link")
    f = FluidFlow([(res, 1.0)], size=None, cap=30.0, name="f")
    fl.start(f)
    assert f.rate == pytest.approx(30.0)  # the read forced the flush
    assert fl.stats.rebalances == 1
    assert res.load == pytest.approx(30.0)
    assert fl.stats.rebalances == 1  # already settled: no second pass


def test_finish_many_freezes_bytes_in_one_settle():
    for scheduler in (FluidScheduler, EagerFluidScheduler):
        sim = Simulator()
        fl = scheduler(sim)
        res = FluidResource(fl, 100.0, "link")
        flows = [FluidFlow([(res, 1.0)], size=None, name=f"f{i}")
                 for i in range(4)]
        fl.start_many(flows)
        sim.run(until=2.0)
        moved = fl.finish_many(flows)
        assert moved == pytest.approx([50.0] * 4)
        assert all(not f._active for f in flows)


def test_bulk_api_matches_sequential_loops():
    def run(bulk: bool):
        sim = Simulator()
        fl = FluidScheduler(sim)
        res = FluidResource(fl, 120.0, "link")
        flows = [FluidFlow([(res, 1.0)], size=60.0, name=f"f{i}")
                 for i in range(3)]
        if bulk:
            events = fl.start_many(flows)
        else:
            events = [fl.start(f) for f in flows]
        sim.run(until=events[0])
        return [(f.transferred, f.finished_at) for f in flows]

    assert run(bulk=True) == run(bulk=False)


# --- broker bulk lifecycle -----------------------------------------------------


def _broker(seed=0, **cfg):
    ctx = Context.create(seed=seed)
    fleet = RailFleet(ctx, n_hosts=1)
    return ctx, TransferBroker(ctx, fleet, BrokerConfig(**cfg))


def test_submit_many_matches_submit_loop():
    arrivals = [(f"t{i % 3}", (32 + 8 * i) * MIB, i % 2) for i in range(12)]

    ctx_a, broker_a = _broker(seed=1)
    ids_a = broker_a.submit_many(arrivals)
    ctx_a.sim.run(until=30.0)

    ctx_b, broker_b = _broker(seed=1)
    ids_b = [broker_b.submit(t, s, n) for t, s, n in arrivals]
    ctx_b.sim.run(until=30.0)

    assert ids_a == ids_b
    assert json.dumps(broker_a.summary(), sort_keys=True) == json.dumps(
        broker_b.summary(), sort_keys=True)


def test_submit_many_sheds_in_arrival_order():
    # quota 1, queue 1: first runs, second queues, the rest shed.
    ctx, broker = _broker(seed=0, tenant_quota=1, max_queue=1)
    ids = broker.submit_many([("t0", 64 * MIB, 0)] * 4)
    assert ids[0] is not None and ids[1] is not None
    assert ids[2] is None and ids[3] is None
    assert broker.stats.shed == 2
    ctx.sim.run(until=30.0)
    assert broker.stats.completed == 2


def test_route_memo_warms_and_invalidates_on_faults():
    ctx, broker = _broker(seed=0)
    broker.submit_many([("t0", 16 * MIB, 0), ("t1", 16 * MIB, 0)])
    assert broker._path_cache  # warmed by the dispatch pass
    dead = broker.fleet.rails[0]
    broker.on_link_down(dead.link, permanent=False)
    # the dead rail's memoized routes are gone (survivors may re-warm)
    assert all(key[0] != dead.index for key in broker._path_cache)
    before = dict(broker._path_cache)
    broker.on_link_up(dead.link)
    # restoration invalidates again; the revived rail is routable anew
    jid = broker.submit("t2", 16 * MIB, 0)
    assert jid is not None
    assert broker._path_cache != before or broker._path_cache


# --- burst-arrival determinism matrix ------------------------------------------

BURST_SPEC = FabricSpec(
    n_pods=2, hosts_per_pod=2, n_wan_links=1, wan_gbps=20.0,
    elephants_per_pod=1, elephant_gbps=4.0,
    rate_per_host=4.0, size_mean_mib=16.0, size_dist="fixed", burst=6,
    n_tenants=4, wan_tenants=2, serve_s=2.0, horizon_s=3.0)


def _canon(result: dict) -> str:
    masked = dict(result, exchange=dict(result["exchange"], n_shards=None))
    return json.dumps(masked, sort_keys=True, default=str)


#: ``_VECTOR_MIN_FLOWS`` per dispatch path: "python" sends every
#: component through the scalar filling loop, "array" through the
#: vectorized one.
DISPATCH = {"python": 10 ** 9, "array": 2}


@pytest.mark.parametrize("solver", ["python", "array"])
def test_burst_ledgers_identical_across_churn_modes(monkeypatch, solver):
    monkeypatch.setattr(fluid, "_VECTOR_MIN_FLOWS", DISPATCH[solver])
    ledgers = set()
    for scheduler in (EagerFluidScheduler, FluidScheduler):
        monkeypatch.setattr(context, "FluidScheduler", scheduler)
        ledgers.add(_canon(run_fabric(BURST_SPEC, seed=11, sharded=False)))
    assert len(ledgers) == 1


def test_burst_ledgers_identical_across_shards_and_workers(monkeypatch):
    # The sharded contract (MODELING.md §12): byte-identical ledgers at
    # any worker or shard count, and under the eager oracle (in-process
    # shards only: worker processes build the production scheduler); the
    # single-process reference agrees on every job-census total (its
    # un-quantized rates may shift individual latencies within an epoch).
    ledgers = set()
    for scheduler, jobs, n_shards in ((FluidScheduler, 1, 1),
                                      (FluidScheduler, 2, 2),
                                      (EagerFluidScheduler, 1, 1),
                                      (EagerFluidScheduler, 1, 2)):
        monkeypatch.setattr(context, "FluidScheduler", scheduler)
        with executor(jobs=jobs):
            ledgers.add(_canon(run_fabric(BURST_SPEC, seed=11,
                                          n_shards=n_shards,
                                          fixed_rounds=2)))
    monkeypatch.setattr(context, "FluidScheduler", FluidScheduler)
    assert len(ledgers) == 1

    def totals(result):
        return [(c["pod"], c["completed"], c["shed"], c["wan_jobs"])
                for c in result["cells"]]

    with executor(jobs=1):
        sharded = run_fabric(BURST_SPEC, seed=11, n_shards=1,
                             fixed_rounds=2)
    reference = run_fabric(BURST_SPEC, seed=11, sharded=False)
    assert totals(sharded) == totals(reference)


def test_burst_one_never_uses_bulk_ingress():
    # burst=1 must stay call-for-call identical to the classic per-tick
    # process: the bulk ingress is never touched.
    ctx = Context.create(seed=3)
    calls = []

    def boom(jobs):
        raise AssertionError("bulk ingress used for burst=1")

    gen = WorkloadGenerator(
        ctx, WorkloadConfig(rate=50.0, burst=1),
        lambda t, s, n: calls.append((t, s, n)), submit_many=boom)
    gen.start()
    ctx.sim.run(until=1.0)
    assert calls


def test_burst_draws_identical_with_and_without_bulk_ingress():
    def collect(use_bulk: bool):
        ctx = Context.create(seed=3)
        calls = []
        gen = WorkloadGenerator(
            ctx, WorkloadConfig(rate=50.0, burst=3),
            lambda t, s, n: calls.append((t, s, n)),
            submit_many=(calls.extend if use_bulk else None))
        gen.start()
        ctx.sim.run(until=1.0)
        return calls

    bulk, loop = collect(True), collect(False)
    assert bulk and bulk == loop


def test_fixed_size_dist_draws_nothing():
    ctx = Context.create(seed=3)
    sizes = []
    gen = WorkloadGenerator(
        ctx, WorkloadConfig(rate=50.0, size_dist="fixed",
                            size_mean=32 * MIB),
        lambda t, s, n: sizes.append(s))
    before = ctx.rng.stream("service.sizes").bit_generator.state
    gen.start()
    ctx.sim.run(until=1.0)
    after = ctx.rng.stream("service.sizes").bit_generator.state
    assert sizes and all(s == 32 * MIB for s in sizes)
    assert before == after  # the sizes stream was never consumed
    with pytest.raises(ValueError, match="burst"):
        WorkloadConfig(burst=0)
