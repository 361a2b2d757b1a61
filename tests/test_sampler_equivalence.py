"""Differential suite: the backfill sampler against a per-tick shadow.

The :func:`shadow` fixture wraps :meth:`SamplerHub.channel`: every
declared channel also gets a per-tick simulator process that, once per
interval, settles the hub's fluid schedulers and records ``counter()``
into a shadow :class:`TimeSeries` — what a sampler that ticks through
the event loop would record.  Every fluid-driven throughput series
must match its shadow to 1e-6 across application scenarios (RFTP and
GridFTP), because backfilling only replaces *when* the piecewise-linear
counters are read, never the dynamics.

Also covers the array-backed ``TimeSeries.record_many`` bulk append
(monotonic-time enforcement, summary helpers).
"""

import numpy as np
import pytest

from repro.core.system import EndToEndSystem
from repro.core.tuning import TuningPolicy
from repro.sim import (
    FluidFlow,
    FluidResource,
    FluidScheduler,
    SamplerHub,
    Simulator,
    ThroughputProbe,
    TimeSeries,
    hub_for,
)
from repro.util.units import GB, MIB

TOL = 1e-6


def _tick(hub, channel, counter, interval, series, last):
    """Per-tick sampler process: settle, read, record, once per interval.

    The settle runs with the hub's channels hidden, so the shadow never
    hands the backfill an epoch boundary at a sample point: backfilled
    points keep being interpolated exactly as in an unshadowed run.
    """
    sim = hub.sim
    while True:
        yield sim.timeout(interval)
        if channel._stopped:
            return
        channels, hub._channels = hub._channels, []
        try:
            for sched in hub._schedulers:
                sched.settle()
        finally:
            hub._channels = channels
        value = float(counter())
        series.record(sim.now, (value - last) / interval)
        last = value


@pytest.fixture
def shadow(monkeypatch):
    """Shadow every channel declared during the test; returns a lookup
    from a channel's series to its per-tick shadow series."""
    pairs = []
    declare = SamplerHub.channel

    def channel(self, counter, interval, series):
        ch = declare(self, counter, interval, series)
        twin = TimeSeries(f"shadow:{series.name}")
        last = float(counter())
        self.sim.process(_tick(self, ch, counter, interval, twin, last),
                         name=f"shadow:{series.name}")
        pairs.append((series, twin))
        return ch

    monkeypatch.setattr(SamplerHub, "channel", channel)

    def lookup(series):
        return next(twin for s, twin in pairs if s is series)

    return lookup


def assert_series_match(a: TimeSeries, b: TimeSeries) -> None:
    ta, va = a.as_arrays()
    tb, vb = b.as_arrays()
    assert len(a) == len(b), f"{a.name}: {len(a)} vs {len(b)} samples"
    np.testing.assert_allclose(ta, tb, rtol=0.0, atol=1e-9,
                               err_msg=f"times diverge in {a.name}")
    np.testing.assert_allclose(va, vb, rtol=TOL, atol=TOL,
                               err_msg=f"values diverge in {a.name}")


# --- direct probe scenarios ----------------------------------------------------


def _throttled_flow_run(with_probe=True):
    sim = Simulator()
    sched = FluidScheduler(sim)
    link = FluidResource(sched, 100.0, "link")
    flow = FluidFlow([(link, 1.0)], size=None, name="f")
    probe = (ThroughputProbe(sim, lambda: flow.transferred, interval=1.0,
                             name="tp") if with_probe else None)
    sched.start(flow)

    def driver():
        yield sim.timeout(4.5)
        link.set_capacity(50.0)  # mid-interval rate epoch
        yield sim.timeout(3.25)
        link.set_capacity(200.0)
        yield sim.timeout(4.25)

    done = sim.process(driver())
    sim.run(until=done)
    sim.run(until=12.0)
    sched.settle()
    series = probe.stop() if probe is not None else None
    sched.stop(flow)
    return series, flow.transferred, sim.stats


def test_probe_agrees_across_rate_epochs(shadow):
    series, _total, stats = _throttled_flow_run()
    assert_series_match(shadow(series), series)
    assert stats.samples_backfilled == len(series) == 12


def test_probe_schedules_no_events():
    """Backfilled samples cost no heap events: a probed run processes
    exactly the events of the same run without a probe."""
    _, total, probed = _throttled_flow_run()
    _, total_bare, bare = _throttled_flow_run(with_probe=False)
    assert probed.events_processed == bare.events_processed
    assert total == total_bare


def test_probe_samples_between_epochs_are_linear():
    """Within one epoch the backfilled rates equal the constant fluid rate."""
    series, total, _ = _throttled_flow_run()
    # epochs at 4.5 / 7.75 / 12.0; rates 100 / 50 / 200
    values = dict(zip(series.times, series.values))
    assert values[1.0] == pytest.approx(100.0, rel=TOL)
    assert values[4.0] == pytest.approx(100.0, rel=TOL)
    assert values[5.0] == pytest.approx(0.5 * 100.0 + 0.5 * 50.0, rel=TOL)
    assert values[6.0] == pytest.approx(50.0, rel=TOL)
    assert values[8.0] == pytest.approx(0.75 * 50.0 + 0.25 * 200.0, rel=TOL)
    assert values[12.0] == pytest.approx(200.0, rel=TOL)
    assert total == pytest.approx(100 * 4.5 + 50 * 3.25 + 200 * 4.25, rel=TOL)


# --- application scenarios -----------------------------------------------------


def test_rftp_wan_cell_agrees(shadow):
    from repro.core.experiments.exp_fig13_wan_bw import transfer

    result = transfer(4 * MIB, 2, 20.0, seed=3, cal=None)
    assert len(result.series) > 0
    assert_series_match(shadow(result.series), result.series)


def test_gridftp_run_agrees(shadow):
    system = EndToEndSystem.lan_testbed(
        TuningPolicy.numa_bound(), seed=7, lun_size=2 * GB)
    result = system.run_gridftp_transfer(duration=10.0)
    assert len(result.series) > 0
    assert_series_match(shadow(result.series), result.series)


# --- TimeSeries.record_many ----------------------------------------------------


def test_record_many_matches_looped_record():
    a, b = TimeSeries("a"), TimeSeries("b")
    ts = [0.5, 1.0, 2.5, 2.5, 4.0]
    vs = [1.0, -2.0, 3.5, 0.0, 7.25]
    for t, v in zip(ts, vs):
        a.record(t, v)
    b.record_many(ts, vs)
    assert b.times == a.times and b.values == a.values
    assert b.mean() == a.mean()
    assert b.steady_mean() == a.steady_mean()
    assert b.max() == a.max() and b.min() == a.min()
    tb, vb = b.as_arrays()
    np.testing.assert_array_equal(tb, np.asarray(ts))
    np.testing.assert_array_equal(vb, np.asarray(vs))


def test_record_many_appends_after_existing_samples():
    s = TimeSeries("s")
    s.record(1.0, 10.0)
    s.record_many([1.0, 2.0], [20.0, 30.0])
    assert s.times == [1.0, 1.0, 2.0]
    assert s.values == [10.0, 20.0, 30.0]


def test_record_many_enforces_monotonic_time():
    s = TimeSeries("s")
    with pytest.raises(ValueError, match="backwards"):
        s.record_many([1.0, 0.5], [0.0, 0.0])
    s.record(2.0, 0.0)
    with pytest.raises(ValueError, match="backwards"):
        s.record_many([1.5, 3.0], [0.0, 0.0])
    # failed batches must not have mutated the series
    assert s.times == [2.0] and s.values == [0.0]


def test_record_many_validates_shape_and_allows_empty():
    s = TimeSeries("s")
    s.record_many([], [])
    assert len(s) == 0
    with pytest.raises(ValueError, match="equal-length"):
        s.record_many([1.0, 2.0], [0.0])
    with pytest.raises(ValueError, match="equal-length"):
        s.record_many([[1.0, 2.0]], [[0.0, 0.0]])


# --- sampler plumbing ----------------------------------------------------------


def test_channel_validation():
    sim = Simulator()
    hub = hub_for(sim)
    assert hub is hub_for(sim)  # one hub per simulator
    series = TimeSeries("x")
    with pytest.raises(ValueError, match="interval"):
        hub.channel(lambda: 0.0, 0.0, series)


def test_probe_stop_is_idempotent():
    sim = Simulator()
    probe = ThroughputProbe(sim, lambda: 0.0, interval=1.0)
    sim.run(until=3.0)
    first = probe.stop()
    again = probe.stop()
    assert first is again
    assert len(first) == 3
