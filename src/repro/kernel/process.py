"""Simulated processes and threads with NUMA binding state.

A :class:`SimProcess` groups threads, a CPU policy and a memory policy
(the unit ``numactl`` operates on).  A :class:`SimThread` is the unit of
serial execution: the work compiler (:mod:`repro.kernel.work`) caps each
thread's pipeline rate at one core's worth of its per-byte costs, which
is how the single-threaded-GridFTP bottleneck arises naturally.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.kernel.numa import NumaPolicy

__all__ = ["SimProcess", "SimThread"]


class SimThread:
    """One schedulable thread of a simulated process."""

    def __init__(self, process: "SimProcess", name: str):
        self.process = process
        self.name = name
        self.accounting = CpuAccounting(name)

    @property
    def machine(self) -> Machine:
        """The owning machine."""
        return self.process.machine

    def execution_fractions(self) -> Dict[int, float]:
        """Fraction of this thread's CPU time on each NUMA node."""
        return self.process.cpu_policy.execution_fractions(self.machine.n_nodes)

    def home_node(self) -> Optional[int]:
        """The single node the thread is pinned to, if any."""
        fracs = self.execution_fractions()
        if len(fracs) == 1:
            return next(iter(fracs))
        return None

    def __repr__(self) -> str:
        return f"<SimThread {self.name!r} of {self.process.name!r}>"


class SimProcess:
    """A process: thread container plus NUMA policies.

    ``cpu_policy`` governs where threads execute; ``mem_policy`` governs
    where the process's allocations land (first-touch by default).
    """

    def __init__(
        self,
        machine: Machine,
        name: str,
        cpu_policy: Optional[NumaPolicy] = None,
        mem_policy: Optional[NumaPolicy] = None,
    ):
        self.machine = machine
        self.name = name
        self.cpu_policy = cpu_policy or NumaPolicy.default()
        self.mem_policy = mem_policy or NumaPolicy.default()
        self.threads: list[SimThread] = []
        self.accounting = CpuAccounting(name)

    def spawn_thread(self, name: str = "") -> SimThread:
        """Create a new thread in this process."""
        t = SimThread(self, name or f"{self.name}.t{len(self.threads)}")
        self.threads.append(t)
        return t

    def merged_accounting(self) -> CpuAccounting:
        """Process-wide ledger: own plus all threads'."""
        return CpuAccounting.total(
            (self.accounting, *(t.accounting for t in self.threads)), self.name)

    def __repr__(self) -> str:
        return (
            f"<SimProcess {self.name!r} threads={len(self.threads)} "
            f"cpu={self.cpu_policy.kind.value} mem={self.mem_policy.kind.value}>"
        )
