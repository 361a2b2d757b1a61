"""Measurement: time series, throughput probes and a structured trace log.

These utilities produce the throughput timelines behind Figs. 9 and 11
and the per-event traces used in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.sampling import hub_for

__all__ = ["TimeSeries", "ThroughputProbe", "TraceLog"]


@dataclass
class TimeSeries:
    """An append-only (time, value) series with summary helpers."""

    name: str = ""
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, t: float, v: float) -> None:
        """Append one entry."""
        if self.times and t < self.times[-1]:
            raise ValueError(f"time went backwards in series {self.name!r}")
        self.times.append(t)
        self.values.append(v)

    def record_many(self, times: Any, values: Any) -> None:
        """Append a batch of entries (the backfill sampler's bulk path).

        ``times`` must be non-decreasing and start no earlier than the
        last recorded time; both inputs are flat array-likes of equal
        length.  Semantically identical to calling :meth:`record` in a
        loop, but the monotonicity check is vectorized.
        """
        ts = np.asarray(times, dtype=float)
        vs = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape:
            raise ValueError(
                f"record_many needs equal-length 1-D arrays, got "
                f"{ts.shape} and {vs.shape}"
            )
        if ts.size == 0:
            return
        if (ts.size > 1 and np.any(np.diff(ts) < 0)) or (
            self.times and ts[0] < self.times[-1]
        ):
            raise ValueError(f"time went backwards in series {self.name!r}")
        self.times.extend(ts.tolist())
        self.values.extend(vs.tolist())

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def mean(self) -> float:
        """Arithmetic mean of the recorded values (0 if empty)."""
        return float(np.mean(self.values)) if self.values else 0.0

    def steady_mean(self, skip_fraction: float = 0.2) -> float:
        """Mean after discarding the initial ramp-up window."""
        if not self.values:
            return 0.0
        skip = int(len(self.values) * skip_fraction)
        tail = self.values[skip:] or self.values
        return float(np.mean(tail))

    def max(self) -> float:
        """Maximum recorded value."""
        return float(np.max(self.values)) if self.values else 0.0

    def min(self) -> float:
        """Minimum recorded value."""
        return float(np.min(self.values)) if self.values else 0.0

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The series as (times, values) NumPy arrays."""
        return np.asarray(self.times), np.asarray(self.values)

    def sparkline(self, width: int = 60, lo: Optional[float] = None,
                  hi: Optional[float] = None) -> str:
        """A unicode sparkline of the series (the poor man's figure).

        Values are bucketed to *width* columns (mean per bucket) and
        mapped onto eight block heights between *lo* and *hi* (default:
        0 to the series max).
        """
        if not self.values:
            return ""
        blocks = " ▁▂▃▄▅▆▇█"
        values = np.asarray(self.values, dtype=float)
        n = min(width, len(values))
        buckets = [
            float(chunk.mean())
            for chunk in np.array_split(values, n)
        ]
        low = 0.0 if lo is None else lo
        high = float(max(buckets)) if hi is None else hi
        span = max(high - low, 1e-12)
        out = []
        for v in buckets:
            idx = int(round((v - low) / span * (len(blocks) - 1)))
            out.append(blocks[max(0, min(idx, len(blocks) - 1))])
        return "".join(out)


class ThroughputProbe:
    """Samples a cumulative byte counter into a rate (bytes/s) time series.

    ``counter`` is any zero-argument callable returning cumulative bytes
    (e.g. a closure over ``flow.transferred``, possibly summing several
    flows).  Each sample records the average rate over the last interval.

    The probe is a thin veneer over a :class:`~repro.sim.sampling.Channel`
    declared on the simulator's :class:`~repro.sim.sampling.SamplerHub`:
    sample points are materialized analytically at fluid-epoch
    boundaries (zero heap events).
    """

    def __init__(
        self,
        sim: Simulator,
        counter: Callable[[], float],
        interval: float = 1.0,
        name: str = "",
    ):
        self.sim = sim
        self.counter = counter
        self.interval = interval
        self.series = TimeSeries(name=name or "throughput")
        self._channel = hub_for(sim).channel(counter, interval, self.series)

    def flush(self) -> None:
        """Materialize every sample due up to the current instant."""
        self._channel.flush()

    def stop(self) -> TimeSeries:
        """Stop the activity; returns/flushes what it accumulated."""
        return self._channel.stop()


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace entry."""

    time: float
    category: str
    message: str
    fields: tuple[tuple[str, Any], ...] = ()


class TraceLog:
    """A structured, filterable event log (used heavily by tests)."""

    def __init__(self, sim: Simulator, enabled: bool = True):
        self.sim = sim
        self.enabled = enabled
        self.records: list[TraceRecord] = []

    def emit(self, category: str, message: str, **fields: Any) -> None:
        """Record one structured entry."""
        if not self.enabled:
            return
        self.records.append(
            TraceRecord(self.sim.now, category, message, tuple(sorted(fields.items())))
        )

    def snapshot_stats(self, category: str = "sim-stats") -> None:
        """Emit one record carrying the simulator's kernel counters."""
        self.emit(category, "kernel counters", **self.sim.stats.as_dict())

    def filter(self, category: str) -> list[TraceRecord]:
        """Entries of one category."""
        return [r for r in self.records if r.category == category]

    def messages(self, category: Optional[str] = None) -> list[str]:
        """Message strings, optionally filtered by category."""
        return [
            r.message for r in self.records if category is None or r.category == category
        ]

    def __len__(self) -> int:
        return len(self.records)
