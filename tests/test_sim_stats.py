"""Tests for the kernel's stats counters and the timeout free list.

Covers ``SimStats`` (engine counters), ``FluidStats`` (allocator
counters), the ``Timeout`` pool, the process-global event counter the
benchmark harness reads, and ``TraceLog.snapshot_stats``, which records
the engine counters into a trace.
"""

import pytest

from repro.sim import (
    FluidFlow,
    FluidResource,
    FluidScheduler,
    SimStats,
    Simulator,
)
from repro.sim.engine import SimulationError
from repro.sim.trace import TraceLog


# --- SimStats ------------------------------------------------------------------


def test_stats_start_at_zero():
    stats = Simulator().stats
    assert isinstance(stats, SimStats)
    assert stats.as_dict() == {
        "events_scheduled": 0,
        "events_processed": 0,
        "heap_peak": 0,
        "timeouts_reused": 0,
        "samples_backfilled": 0,
        "events_skipped": 0,
        "wall_seconds": 0.0,
    }


def test_scheduled_equals_processed_after_drain():
    sim = Simulator()

    def proc():
        for _ in range(20):
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert sim.stats.events_processed > 20
    assert sim.stats.events_scheduled == sim.stats.events_processed


def test_heap_peak_tracks_simultaneous_schedules():
    sim = Simulator()
    for i in range(7):
        sim.timeout(float(i))
    assert sim.stats.heap_peak == 7
    sim.run()
    # draining never raises the peak
    assert sim.stats.heap_peak == 7


def test_wall_seconds_accumulates_across_runs():
    sim = Simulator()

    def proc():
        for _ in range(100):
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run(until=50.0)
    first = sim.stats.wall_seconds
    assert first > 0.0
    sim.run()
    assert sim.stats.wall_seconds > first


def test_process_global_event_counter():
    before = Simulator.events_processed_total
    sim = Simulator()
    for i in range(5):
        sim.timeout(float(i))
    sim.run()
    assert Simulator.events_processed_total - before == sim.stats.events_processed == 5


# --- timeout free list ---------------------------------------------------------


def test_timeout_pool_recycles_unreferenced_timeouts():
    sim = Simulator()

    def proc():
        for _ in range(10):
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    # after the first timeout is processed, every later one reuses it
    assert sim.stats.timeouts_reused >= 8


def test_timeout_pool_recycles_in_a_timeout_heavy_run():
    """Fluid completion timers and process sleeps both reuse timeouts.

    Recycling is silent when it stops: it needs the processed timeout to
    have no reference left but the engine's own, so a heap entry or
    callback that kept a second one would turn every reuse into an
    allocation without failing anything else.
    """
    sim = Simulator()
    sched = FluidScheduler(sim)
    link = FluidResource(sched, 100.0, "link")

    def sender(i):
        for k in range(20):
            yield sim.timeout(0.01 * (i + 1))
            yield sched.start(FluidFlow([(link, 1.0)], size=5.0 + k,
                                        name=f"s{i}-{k}"))

    for i in range(4):
        sim.process(sender(i))
    sim.run()
    stats = sim.stats
    assert stats.timeouts_reused > stats.events_processed // 4


def test_timeout_pool_skips_referenced_timeouts():
    sim = Simulator()
    keep = sim.timeout(0.0)
    sim.run()
    assert keep.processed
    later = sim.timeout(0.0)
    assert later is not keep
    assert sim.stats.timeouts_reused == 0


def test_recycled_timeout_state_is_reset():
    sim = Simulator()
    sim.timeout(0.0, value="old")  # deliberately unreferenced
    sim.run()
    reused = sim.timeout(2.0, value="new")
    assert sim.stats.timeouts_reused == 1
    assert not reused.processed
    assert reused.value == "new"
    assert reused.callbacks is None
    got = []
    reused.add_callback(lambda ev: got.append(ev.value))
    sim.run()
    assert got == ["new"]
    assert sim.now == pytest.approx(2.0)


def test_pooled_timeout_still_validates_delay():
    sim = Simulator()
    sim.timeout(0.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


# --- FluidStats ----------------------------------------------------------------


def test_fluid_stats_count_skipped_components():
    # flush after each transition so the per-call recompute/skip deltas
    # below are observable (same-instant transitions otherwise share one
    # deferred rebalance).
    sim = Simulator()
    sched = FluidScheduler(sim)
    ra = FluidResource(sched, 100.0, "ra")
    rb = FluidResource(sched, 200.0, "rb")
    fa = FluidFlow([(ra, 1.0)], size=None, cap=None, name="fa")
    fb = FluidFlow([(rb, 1.0)], size=None, cap=None, name="fb")
    sched.start(fa)
    sched.flush()
    sched.start(fb)
    sched.flush()
    recomputed = sched.stats.flows_recomputed
    skipped = sched.stats.flows_skipped

    # capping fa touches only ra's component; fb's cached rate is reused
    sched.set_cap(fa, 10.0)
    sched.flush()
    assert sched.stats.flows_recomputed == recomputed + 1
    assert sched.stats.flows_skipped == skipped + 1
    assert fa.rate == pytest.approx(10.0)
    assert fb.rate == pytest.approx(200.0)

    snap = sched.stats.as_dict()
    assert snap["rebalances"] >= snap["allocations"] >= 1


# --- TraceLog ------------------------------------------------------------------


def test_tracelog_snapshot_stats():
    sim = Simulator()
    log = TraceLog(sim)
    for i in range(4):
        sim.timeout(float(i))
    sim.run()
    log.snapshot_stats()
    (rec,) = log.filter("sim-stats")
    fields = dict(rec.fields)
    assert fields == sim.stats.as_dict()
    assert fields["events_processed"] == 4
