"""Backfill sampling: analytic telemetry instead of 1 Hz sampler ticks.

Profiling paper-scale runs (``exp_fig13_wan_bw.run(quick=False)``) shows
the event loop dominated not by dynamics but by *telemetry*: ~4,800 of
~4,928 steps are periodic sampler ticks, each paying a heap push/pop, a
generator resume, a fluid settle and a Python-level sample.  The fluid
model makes every flow's rate **piecewise-constant between rebalances**,
so those samples are closed-form computable — there is no information in
a 1 Hz probe of a linear function.

This module exploits that.  Probes declare *channels* on a per-simulator
:class:`SamplerHub` instead of spawning one generator process each.  A
channel wraps a cumulative counter ``C(t)`` (bytes moved) and records
``(C(t_k) - C(t_k - dt)) / dt`` at every sample point ``t_k``.

The hub subscribes to :class:`~repro.sim.fluid.FluidScheduler` rate
epochs.  At every epoch boundary (rebalance/settle), and at run
boundaries and channel ``stop()``, all elapsed sample points in
``(last_epoch, now]`` are vectorized with NumPy: cumulative counters are
linear within an epoch, so the backfilled rates are exact (``rate x
dt``).  Quiescent intervals are fast-forwarded with **zero heap
events**.

The series equal what a per-tick sampler process would record (settle,
then read the counter, once per interval) to floating-point tolerance;
``tests/test_sampler_equivalence.py`` keeps such a shadow sampler as the
oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

import numpy as np

from repro import metrics
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.fluid import FluidScheduler
    from repro.sim.trace import TimeSeries

__all__ = ["hub_for", "SamplerHub", "Channel"]

#: Sample points within this fraction of an interval of an epoch
#: boundary are treated as landing exactly on it.
_T_EPS = 1e-9

#: Process-wide backfill counters (the ``sampler`` registry layer).
_TOTALS = metrics.counters("sampler", samples_backfilled=0, events_skipped=0)


def hub_for(sim: Simulator) -> "SamplerHub":
    """The simulator's :class:`SamplerHub` (created on first use)."""
    hub = sim.sampler_hub
    if hub is None:
        hub = SamplerHub(sim)
        sim.sampler_hub = hub
    return hub


class Channel:
    """One declared telemetry stream: counter + interval + target series.

    ``counter()`` is a cumulative total; the channel records
    per-interval average rates.  It only stores anchors and is
    fast-forwarded by the hub at epoch/run boundaries.
    """

    __slots__ = ("hub", "counter", "interval", "series",
                 "_next_t", "_last_total", "_t0", "_c0", "_stopped")

    def __init__(
        self,
        hub: "SamplerHub",
        counter: Callable[[], float],
        interval: float,
        series: "TimeSeries",
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.hub = hub
        self.counter = counter
        self.interval = float(interval)
        self.series = series
        self._stopped = False
        now = hub.sim.now
        self._next_t = now + self.interval
        self._t0 = now
        self._last_total = float(counter())
        self._c0 = self._last_total
        hub._channels.append(self)

    # -- backfill --------------------------------------------------------------
    def _pending(self, now: float) -> int:
        """How many sample points are due in ``(last, now]``."""
        span = now - self._next_t
        tol = _T_EPS * self.interval
        if span < -tol:
            return 0
        return int(span / self.interval + _T_EPS) + 1

    def _on_epoch(self, now: float) -> int:
        """Fast-forward the channel to *now*; returns samples recorded.

        Called with fluid progress already settled at *now*; the
        cumulative counter is linear over ``(_t0, now]``, so every
        backfilled point is exact.
        """
        c1 = float(self.counter())
        t0 = self._t0
        elapsed = now - t0
        if elapsed <= 0.0:
            self._c0 = c1
            return 0
        n = self._pending(now)
        if n:
            iv = self.interval
            c0 = self._c0
            ts = self._next_t + iv * np.arange(n)
            totals = c0 + (ts - t0) * ((c1 - c0) / elapsed)
            if abs(float(ts[-1]) - now) <= _T_EPS * iv:
                # Snap the boundary sample to the exact counter reading
                # (no interpolation dust at epoch ends).
                totals[-1] = c1
            prev = np.empty(n)
            prev[0] = self._last_total
            prev[1:] = totals[:-1]
            self.series.record_many(ts, (totals - prev) / iv)
            self._last_total = float(totals[-1])
            self._next_t = float(ts[-1]) + iv
        self._t0 = now
        self._c0 = c1
        return n

    # -- lifecycle --------------------------------------------------------------
    def flush(self) -> None:
        """Materialize every sample due up to the current instant."""
        if not self._stopped:
            self.hub.flush()

    def stop(self) -> "TimeSeries":
        """Flush pending samples, detach the channel, return its series."""
        if self._stopped:
            return self.series
        self.hub.flush()
        self._stopped = True
        try:
            self.hub._channels.remove(self)
        except ValueError:  # pragma: no cover - defensive
            pass
        return self.series


class SamplerHub:
    """Per-simulator registry of sample channels and fluid schedulers.

    Created lazily by :func:`hub_for` and stored on
    ``Simulator.sampler_hub``.  :class:`~repro.sim.fluid.FluidScheduler`
    registers itself at construction and notifies the hub from
    ``settle()`` whenever simulated time advances (a rate epoch ends);
    the engine flushes the hub at ``run()`` boundaries so series are
    current when control returns to the caller.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._channels: List[Channel] = []
        self._schedulers: List["FluidScheduler"] = []

    # -- wiring ----------------------------------------------------------------
    def attach_scheduler(self, scheduler: "FluidScheduler") -> None:
        """Subscribe to *scheduler*'s rate epochs (idempotent)."""
        if scheduler not in self._schedulers:
            self._schedulers.append(scheduler)

    def channel(
        self,
        counter: Callable[[], float],
        interval: float,
        series: "TimeSeries",
    ) -> Channel:
        """Declare a telemetry channel (see :class:`Channel`)."""
        return Channel(self, counter, interval, series)

    @property
    def active(self) -> bool:
        """True when any channel is registered."""
        return bool(self._channels)

    # -- epoch fan-out ----------------------------------------------------------
    def on_epoch(self, now: float) -> None:
        """A rate epoch ended at *now*: backfill every channel.

        Idempotent — calling twice at the same instant records nothing
        the second time.
        """
        channels = self._channels
        if not channels:
            return
        total = 0
        for ch in channels:
            total += ch._on_epoch(now)
        if total:
            stats = self.sim.stats
            stats.samples_backfilled += total
            stats.events_skipped += total
            _TOTALS["samples_backfilled"] += total
            _TOTALS["events_skipped"] += total

    def flush(self) -> None:
        """Settle fluid progress and fast-forward all channels to now.

        Settling a scheduler whose clock is behind triggers
        :meth:`on_epoch` by itself; the explicit call afterwards covers
        channels on simulators with no (or already-settled) schedulers.
        """
        if not self._channels:
            return
        for sched in self._schedulers:
            sched.settle()
        self.on_epoch(self.sim.now)
