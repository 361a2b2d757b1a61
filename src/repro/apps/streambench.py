"""STREAM Triad: the memory-bandwidth benchmark (McCalpin).

Triad computes ``a[i] = b[i] + q * c[i]`` and reports bandwidth counting
3 x 8 bytes per iteration.  With write-allocate the hardware moves four
cache-line streams, which is how the model's *raw* per-node capacity
relates to the STREAM-reported figure (see the calibration notes).

:func:`run_stream_model` runs the simulated benchmark on a
:class:`~repro.hw.topology.Machine`; it reproduces the paper's "peak
memory bandwidth for two NUMA nodes is 50 GB/s".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.topology import Machine
from repro.kernel.numa import NumaPolicy
from repro.kernel.process import SimProcess
from repro.sim.fluid import FluidFlow

__all__ = ["StreamResult", "run_stream_model"]


@dataclass(frozen=True)
class StreamResult:
    """Triad outcome in STREAM's own accounting."""

    triad_bytes_per_s: float  # 3 counted bytes per iteration-byte
    threads: int
    duration: float

    @property
    def triad_gb_per_s(self) -> float:
        """Triad bandwidth in STREAM's GB/s convention."""
        return self.triad_bytes_per_s / 1e9


def run_stream_model(
    machine: Machine,
    threads_per_node: int = 8,
    duration: float = 5.0,
    numa_aware: bool = True,
) -> StreamResult:
    """Run the simulated Triad with OpenMP-style threads.

    ``numa_aware=True`` is STREAM compiled with OpenMP + first-touch
    initialization (each thread's arrays local) — the configuration the
    paper measured at 50 GB/s.
    """
    ctx = machine.ctx
    flows = []
    for node in range(machine.n_nodes):
        policy = NumaPolicy.bind(node) if numa_aware else NumaPolicy.default()
        proc = SimProcess(machine, f"stream{node}", cpu_policy=policy,
                          mem_policy=policy)
        for k in range(threads_per_node):
            thread = proc.spawn_thread()
            exec_fracs = thread.execution_fractions()
            # triad moves 4 hardware streams per iteration (2 loads +
            # write-allocate + store); per counted byte that is 4/3.
            path = []
            for en, ef in exec_fracs.items():
                mem_fracs = (
                    {en: 1.0} if numa_aware
                    else {n: 1.0 / machine.n_nodes for n in range(machine.n_nodes)}
                )
                for mn, mf in mem_fracs.items():
                    for res, w in machine.mem_path(en, mn, 4.0 / 3.0):
                        path.append((res, w * ef * mf))
            # one core sustains ~12 GB/s of triad (AVX FMA-bound ceiling)
            flow = FluidFlow(path, size=None, cap=12e9,
                             name=f"triad-{node}.{k}")
            ctx.fluid.start(flow)
            flows.append(flow)
    t0 = ctx.sim.now
    ctx.sim.run(until=t0 + duration)
    ctx.fluid.settle()
    total = sum(f.transferred for f in flows)
    for f in flows:
        ctx.fluid.stop(f)
    return StreamResult(
        triad_bytes_per_s=total / duration,
        threads=threads_per_node * machine.n_nodes,
        duration=duration,
    )
