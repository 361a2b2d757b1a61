"""Host-level monitoring: getrusage(2) and /proc-style snapshots.

The paper measures with ``getrusage`` (RFTP threads) and ``perf``
(system-wide CPU cycles).  This module provides both views over the
simulation:

* :func:`getrusage` — per-thread/process usr+sys CPU seconds, matching
  the POSIX struct's ``ru_utime``/``ru_stime`` split;
* :class:`HostMonitor` — a sampler recording per-NUMA-node CPU and
  memory-bandwidth utilization over time (what ``mpstat``/``pcm-memory``
  would show), used to identify which resource saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.hw.topology import Machine
from repro.kernel.process import SimProcess, SimThread
from repro.sim.sampling import hub_for
from repro.sim.trace import TimeSeries

__all__ = ["Rusage", "getrusage", "HostMonitor"]


@dataclass(frozen=True)
class Rusage:
    """POSIX getrusage essentials."""

    ru_utime: float  # user CPU seconds
    ru_stime: float  # system CPU seconds

    @property
    def total(self) -> float:
        """Sum over all categories."""
        return self.ru_utime + self.ru_stime


def getrusage(who: Union[SimThread, SimProcess]) -> Rusage:
    """Resource usage of a thread (RUSAGE_THREAD) or process (RUSAGE_SELF)."""
    if isinstance(who, SimProcess):
        acc = who.merged_accounting()
    else:
        acc = who.accounting
    return Rusage(ru_utime=acc.user_seconds(), ru_stime=acc.system_seconds())


class HostMonitor:
    """Periodic sampler of one machine's per-node resource utilization.

    Besides the paper's CPU/memory/QPI views, it also samples the
    simulation kernel's own counters (events processed per simulated
    second) so a run's kernel load shows up next to the modelled
    resources it drives.

    Resource utilizations are piecewise-constant between fluid rate
    epochs, so each view is a *gauge* channel on the simulator's sampler
    hub and all sample points are materialized analytically at epoch
    boundaries.
    """

    def __init__(self, machine: Machine, interval: float = 1.0):
        self.machine = machine
        self.interval = interval
        self.cpu: Dict[int, TimeSeries] = {
            n: TimeSeries(f"cpu{n}") for n in range(machine.n_nodes)
        }
        self.mem: Dict[int, TimeSeries] = {
            n: TimeSeries(f"mem{n}") for n in range(machine.n_nodes)
        }
        self.qpi = TimeSeries("qpi")
        self.events = TimeSeries("events/s")
        sim = machine.ctx.sim
        hub = hub_for(sim)
        m = machine
        self._channels = []
        for n in range(m.n_nodes):
            cpu_res = m.cpu_resource(n)
            self._channels.append(hub.channel(
                (lambda r=cpu_res: r.load / r.capacity),
                interval, self.cpu[n], kind="gauge"))
            mem_res = m.mem_bank(n).bandwidth
            self._channels.append(hub.channel(
                (lambda r=mem_res: r.utilization),
                interval, self.mem[n], kind="gauge"))
        if m.n_nodes > 1:
            q = m.qpi(0, 1)
            self._channels.append(hub.channel(
                (lambda r=q: r.utilization), interval, self.qpi, kind="gauge"))
        stats = sim.stats
        self._channels.append(hub.channel(
            (lambda s=stats: float(s.events_processed)),
            interval, self.events, kind="rate"))

    def stats_snapshot(self) -> Dict[str, float]:
        """Current kernel counters: engine (SimStats) + allocator (FluidStats)."""
        snap: Dict[str, float] = dict(self.machine.ctx.sim.stats.as_dict())
        fluid = self.machine.ctx.fluid
        snap.update({f"fluid_{k}": v for k, v in fluid.stats.as_dict().items()})
        return snap

    def stop(self) -> None:
        """Stop the activity; returns/flushes what it accumulated."""
        for ch in self._channels:
            ch.stop()

    def hottest_resource(self) -> str:
        """Name of the most-utilized resource over the run (mean)."""
        candidates: List[tuple[float, str]] = []
        for n, series in self.cpu.items():
            candidates.append((series.mean(), f"cpu{n}"))
        for n, series in self.mem.items():
            candidates.append((series.mean(), f"mem{n}"))
        if len(self.qpi) > 0:
            candidates.append((self.qpi.mean(), "qpi"))
        return max(candidates)[1] if candidates else "idle"
