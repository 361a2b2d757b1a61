"""Tests for tracing, probes, and the RNG registry."""

import pytest

from repro.sim import (
    FluidFlow,
    FluidResource,
    FluidScheduler,
    RngRegistry,
    Simulator,
    ThroughputProbe,
    TimeSeries,
    TraceLog,
)


# --- TimeSeries ---------------------------------------------------------------


def test_timeseries_record_and_stats():
    ts = TimeSeries("x")
    for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]:
        ts.record(t, v)
    assert len(ts) == 3
    assert ts.mean() == pytest.approx(3.0)
    assert ts.max() == 5.0
    assert ts.min() == 1.0


def test_timeseries_rejects_backwards_time():
    ts = TimeSeries("x")
    ts.record(1.0, 0.0)
    with pytest.raises(ValueError):
        ts.record(0.5, 0.0)


def test_timeseries_steady_mean_skips_rampup():
    ts = TimeSeries("x")
    values = [0.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    for i, v in enumerate(values):
        ts.record(float(i), v)
    assert ts.steady_mean(skip_fraction=0.2) == pytest.approx(10.0)
    assert ts.mean() < 10.0


def test_timeseries_empty_stats():
    ts = TimeSeries()
    assert ts.mean() == 0.0
    assert ts.steady_mean() == 0.0


# --- ThroughputProbe -----------------------------------------------------------


def test_probe_measures_flow_rate():
    sim = Simulator()
    sched = FluidScheduler(sim)
    link = FluidResource(sched, 100.0, "link")
    flow = FluidFlow([(link, 1.0)], size=None, name="open")
    sched.start(flow)
    probe = ThroughputProbe(
        sim,
        counter=lambda: flow.transferred,
        interval=1.0,
    )
    sim.run(until=10.0)
    series = probe.stop()
    assert len(series) == 10
    assert series.mean() == pytest.approx(100.0)
    sched.stop(flow)


def test_probe_sees_rate_change():
    sim = Simulator()
    sched = FluidScheduler(sim)
    link = FluidResource(sched, 100.0, "link")
    flow = FluidFlow([(link, 1.0)], size=None, name="open")
    sched.start(flow)

    def throttle():
        yield sim.timeout(5.0)
        link.set_capacity(50.0)

    sim.process(throttle())
    probe = ThroughputProbe(
        sim, counter=lambda: flow.transferred, interval=1.0)
    sim.run(until=10.0)
    series = probe.stop()
    assert series.values[0] == pytest.approx(100.0)
    assert series.values[-1] == pytest.approx(50.0)


# --- TraceLog ---------------------------------------------------------------------


def test_tracelog_filtering():
    sim = Simulator()
    log = TraceLog(sim)
    log.emit("io", "read", lba=0)
    log.emit("net", "send")
    log.emit("io", "write", lba=8)
    assert len(log) == 3
    assert log.messages("io") == ["read", "write"]
    assert log.filter("net")[0].time == 0.0


def test_tracelog_disabled():
    sim = Simulator()
    log = TraceLog(sim, enabled=False)
    log.emit("io", "read")
    assert len(log) == 0


# --- RngRegistry -------------------------------------------------------------------


def test_rng_streams_reproducible():
    a = RngRegistry(seed=7).stream("tcp").random(5)
    b = RngRegistry(seed=7).stream("tcp").random(5)
    assert (a == b).all()


def test_rng_streams_independent_of_creation_order():
    r1 = RngRegistry(seed=7)
    _ = r1.stream("other").random(100)
    x1 = r1.stream("tcp").random(5)
    r2 = RngRegistry(seed=7)
    x2 = r2.stream("tcp").random(5)
    assert (x1 == x2).all()


def test_rng_different_names_differ():
    reg = RngRegistry(seed=7)
    a = reg.stream("a").random(5)
    b = reg.stream("b").random(5)
    assert not (a == b).all()


def test_rng_stream_cached():
    reg = RngRegistry(seed=7)
    assert reg.stream("a") is reg.stream("a")


def test_rng_fork_differs():
    reg = RngRegistry(seed=7)
    f = reg.fork(1)
    assert f.seed != reg.seed
    a = reg.stream("x").random(3)
    b = f.stream("x").random(3)
    assert not (a == b).all()


def test_rng_validation():
    with pytest.raises(ValueError):
        RngRegistry(seed=-1)
    with pytest.raises(ValueError):
        RngRegistry().stream("")
