"""Backfill sampling: analytic telemetry instead of 1 Hz sampler ticks.

Profiling paper-scale runs (``exp_fig13_wan_bw.run(quick=False)``) shows
the event loop dominated not by dynamics but by *telemetry*: ~4,800 of
~4,928 steps are periodic sampler ticks, each paying a heap push/pop, a
generator resume, a fluid settle and a Python-level sample.  The fluid
model makes every flow's rate **piecewise-constant between rebalances**,
so those samples are closed-form computable — there is no information in
a 1 Hz probe of a linear function.

This module exploits that.  Probes declare *channels* on a per-simulator
:class:`SamplerHub` instead of spawning one generator process each:

* a **rate** channel wraps a cumulative counter ``C(t)`` (bytes moved,
  CPU seconds, events processed) and records
  ``(C(t_k) - C(t_k - dt)) / dt`` at every sample point ``t_k``;
* a **gauge** channel wraps an instantaneous value that is
  piecewise-constant between fluid epochs (resource utilization, load).

The hub subscribes to :class:`~repro.sim.fluid.FluidScheduler` rate
epochs.  At every epoch boundary (rebalance/settle), and at run
boundaries and channel ``stop()``, all elapsed sample points in
``(last_epoch, now]`` are vectorized with NumPy: cumulative counters are
linear within an epoch, so the backfilled rates are exact (``rate x
dt``), and gauges hold one value per epoch.  Quiescent intervals are
fast-forwarded with **zero heap events**.

The series equal what a per-tick sampler process would record (settle,
then read the counter, once per interval) to floating-point tolerance;
``tests/test_sampler_equivalence.py`` keeps such a shadow sampler as the
oracle.  The one exception is kernel *self-measurement*: event-rate
channels count simulator events, and a per-tick sampler's own ticks
would be events, so there the backfilled series linearly interpolates
the dynamics-only event count between epochs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

import numpy as np

from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.fluid import FluidScheduler
    from repro.sim.trace import TimeSeries

__all__ = ["hub_for", "SamplerHub", "Channel"]

#: Channel kinds (see :class:`Channel`).
KINDS = ("rate", "gauge")

#: Sample points within this fraction of an interval of an epoch
#: boundary are treated as landing exactly on it.
_T_EPS = 1e-9


def hub_for(sim: Simulator) -> "SamplerHub":
    """The simulator's :class:`SamplerHub` (created on first use)."""
    hub = sim.sampler_hub
    if hub is None:
        hub = SamplerHub(sim)
        sim.sampler_hub = hub
    return hub


class Channel:
    """One declared telemetry stream: counter + interval + target series.

    ``kind="rate"`` treats ``counter()`` as a cumulative total and
    records per-interval average rates; ``kind="gauge"`` treats it as an
    instantaneous value (piecewise-constant between fluid epochs).

    The channel only stores anchors and is fast-forwarded by the hub at
    epoch/run boundaries.
    """

    __slots__ = ("hub", "counter", "interval", "series", "kind",
                 "_next_t", "_last_total", "_t0", "_c0", "_stopped")

    def __init__(
        self,
        hub: "SamplerHub",
        counter: Callable[[], float],
        interval: float,
        series: "TimeSeries",
        kind: str = "rate",
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        self.hub = hub
        self.counter = counter
        self.interval = float(interval)
        self.series = series
        self.kind = kind
        self._stopped = False
        now = hub.sim.now
        self._next_t = now + self.interval
        self._t0 = now
        self._last_total = float(counter()) if kind == "rate" else 0.0
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

        Called with fluid progress already settled at *now* and (for
        gauges) rates/loads still holding their values for the epoch
        that is ending, so ``counter()`` is exact for every backfilled
        point.
        """
        if self.kind == "gauge":
            n = self._pending(now)
            if n:
                iv = self.interval
                ts = self._next_t + iv * np.arange(n)
                v = float(self.counter())
                self.series.record_many(ts, np.full(n, v))
                self._next_t = float(ts[-1]) + iv
            return n
        # rate: the cumulative counter is linear over (_t0, now].
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

    #: Process-global totals (like FluidStats), for report footers.
    total_samples_backfilled = 0
    total_events_skipped = 0

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
        kind: str = "rate",
    ) -> Channel:
        """Declare a telemetry channel (see :class:`Channel`)."""
        return Channel(self, counter, interval, series, kind=kind)

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
            SamplerHub.total_samples_backfilled += total
            SamplerHub.total_events_skipped += total

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

    @classmethod
    def process_totals(cls) -> dict[str, int]:
        """The process-global counters as a plain dict."""
        return {
            "samples_backfilled": cls.total_samples_backfilled,
            "events_skipped": cls.total_events_skipped,
        }
