"""Churn coalescing: bulk lifecycle fast path, churn determinism.

The coalescing contract (MODELING.md §13): flow transitions inside one
simulation instant settle immediately but defer their rebalance to a
single flush when the event clock advances or a reader needs rates —
and nothing observable changes.  These tests pin

* the engine's advance hooks (flush points at clock advance and every
  ``run()`` exit),
* the bulk ``start_many``/``finish_many`` API and the rate/load
  read-triggered flush,
* churn determinism: a same-seed, high-rate fabric produces identical
  ledgers under the eager oracle (:class:`EagerFluidScheduler`) and
  the coalescing production kernel, and across reruns.
"""

import dataclasses
import json

import pytest

from repro.service import BrokerConfig, RailFleet, TransferBroker
from repro.service.fabric import FabricSpec, run_fabric
from repro.sim import context
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


def test_route_memo_warms_and_invalidates_on_faults():
    ctx, broker = _broker(seed=0)
    broker.submit("t0", 16 * MIB, 0)
    broker.submit("t1", 16 * MIB, 0)
    assert broker._path_cache  # warmed by the dispatch passes
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


# --- churn determinism matrix --------------------------------------------------

#: High-rate lognormal churn: 80 arrivals/s per pod against a
#: saturated WAN, so jobs queue and every completion's dispatch pass
#: lands in the same instant as the stop it follows — same-instant
#: transition bursts the coalescing kernel folds into one rebalance.
CHURN_SPEC = FabricSpec(
    n_pods=2, hosts_per_pod=2, n_wan_links=1, wan_gbps=20.0,
    elephants_per_pod=1, elephant_gbps=4.0,
    rate_per_host=40.0, size_mean_mib=128.0, wan_tenants=2,
    serve_s=2.0, horizon_s=3.0)


def _canon(result) -> str:
    return json.dumps(result, sort_keys=True, default=str)


def _fill_everything_in_loop(self, f: FluidFlow) -> None:
    self._allocate_scalar([f])


#: Fill path per case: "dispatch" keeps the kernel's own dispatch (the
#: one-flow shortcut, the filling loop for the rest); "filling-loop"
#: sends every component, one-flow ones too, through the filling loop
#: over its flow list, so the shortcut must agree with the general fill
#: byte for byte.
FILL = {"dispatch": FluidScheduler._allocate_single,
        "filling-loop": _fill_everything_in_loop}


@pytest.mark.parametrize("fill", ["dispatch", "filling-loop"])
def test_burst_ledgers_identical_across_churn_modes(monkeypatch, fill):
    monkeypatch.setattr(FluidScheduler, "_allocate_single", FILL[fill])
    ledgers = set()
    for scheduler in (EagerFluidScheduler, FluidScheduler):
        monkeypatch.setattr(context, "FluidScheduler", scheduler)
        ledgers.add(_canon(run_fabric(CHURN_SPEC, seed=11, sharded=False)))
    assert len(ledgers) == 1


def test_sharded_churn_ledgers_identical_across_reruns(monkeypatch):
    # The sharded contract (MODELING.md §12): byte-identical ledgers
    # across reruns and under the eager oracle (worker counts:
    # test_shard_determinism); on a WAN that is contended but not
    # saturated, the single-process reference agrees on every job-census
    # total (its un-quantized rates may shift individual latencies
    # within an epoch; at saturation, epoch-granular grants may move
    # whole completions).
    ledgers = set()
    for scheduler in (FluidScheduler, FluidScheduler, EagerFluidScheduler):
        monkeypatch.setattr(context, "FluidScheduler", scheduler)
        ledgers.add(_canon(run_fabric(CHURN_SPEC, seed=11, fixed_rounds=2)))
    monkeypatch.setattr(context, "FluidScheduler", FluidScheduler)
    assert len(ledgers) == 1

    def totals(result):
        return [(c["pod"], c["completed"], c["shed"], c["wan_jobs"])
                for c in result["cells"]]

    roomy = dataclasses.replace(CHURN_SPEC, wan_gbps=100.0)
    sharded = run_fabric(roomy, seed=11, fixed_rounds=2)
    reference = run_fabric(roomy, seed=11, sharded=False)
    assert totals(sharded) == totals(reference)
