"""Workload generators: who submits transfer jobs, when, and how big.

A :class:`WorkloadGenerator` is an ordinary simulation process that
draws inter-arrival gaps, tenant identities, file sizes and first-touch
NUMA nodes from four dedicated RNG streams —

* ``service.arrivals`` — inter-arrival gaps,
* ``service.sizes``    — file-size draws,
* ``service.tenants``  — which tenant submits,
* ``service.placement`` — the job buffer's first-touch node (what an
  unpinned ``malloc`` would have done),

so adding the service layer perturbs no other consumer of the
registry (the repository's stream-per-component seed discipline,
MODELING.md §6), and two runs at one seed submit byte-identical job
streams regardless of scheduler policy — policies are compared on
*placement*, never on workload noise.

Arrivals are Poisson: exponential gaps at ``rate`` jobs/s, one job per
arrival.  File sizes are lognormal (heavy-tailed, sigma
:data:`LOGNORMAL_SIGMA`), with the underlying ``mu`` solved so the draw
mean equals ``size_mean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.sim.context import Context
from repro.util.units import MIB
from repro.util.validation import check_positive

__all__ = ["WorkloadConfig", "WorkloadGenerator"]

#: Lognormal file-size sigma (tail weight) — ~1 gives a 10x p99/mean
#: spread.
LOGNORMAL_SIGMA = 1.0
#: Tenants submitting jobs: each arrival draws ``tenant0`` ..
#: ``tenant{N_TENANTS-1}`` uniformly.
N_TENANTS = 8


@dataclass(frozen=True)
class WorkloadConfig:
    """The job stream one broker serves."""

    #: Aggregate arrivals (jobs) per second.
    rate: float = 20.0
    #: Mean file size in bytes (the distribution is solved to this mean).
    size_mean: float = 256 * MIB

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        check_positive("size_mean", self.size_mean)


class WorkloadGenerator:
    """Drives job submissions into a broker as a simulation process.

    ``submit(tenant, size_bytes, touch_node)`` is called at each
    arrival; it is the broker's ingress (but any callable works, which
    is what the unit tests exploit).  Nothing is scheduled and no RNG
    stream is touched until :meth:`start` — a constructed-but-idle
    generator is byte-invisible to the rest of the simulation.
    """

    def __init__(self, ctx: Context, config: WorkloadConfig,
                 submit: Callable[[str, float, int], object],
                 n_nodes: int = 2):
        check_positive("n_nodes", n_nodes)
        self.ctx = ctx
        self.config = config
        self.submit = submit
        self.n_nodes = n_nodes
        self.submitted = 0
        self._stopped = False

    # -- draws -------------------------------------------------------------
    def _draw_job(self) -> tuple[str, float, int]:
        """One job's draws, in the per-job order: tenant, size, touch node."""
        names = self._tenant_names
        tenant = names[int(self._tenants.integers(len(names)))]
        size = float(self._sizes.lognormal(*self._size_params))
        return tenant, size, int(self._touch.integers(self.n_nodes))

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Begin submitting (schedules the arrival process).

        The per-job RNG streams, size-distribution parameters and tenant
        names are resolved here, once, rather than on every arrival.
        """
        cfg = self.config
        rng = self.ctx.rng
        self._tenants = rng.stream("service.tenants")
        self._touch = rng.stream("service.placement")
        self._tenant_names = [f"tenant{i}" for i in range(N_TENANTS)]
        # mu solved so the draw mean is size_mean
        sigma = LOGNORMAL_SIGMA
        self._size_params = (
            math.log(cfg.size_mean) - 0.5 * sigma * sigma, sigma)
        self._sizes = rng.stream("service.sizes")
        self.ctx.sim.process(self._run(), name="service/arrivals")

    def stop(self) -> None:
        """Stop after the current gap (no further submissions)."""
        self._stopped = True

    def _run(self):
        sim = self.ctx.sim
        cfg = self.config
        arrivals = self.ctx.rng.stream("service.arrivals")
        scale = 1.0 / cfg.rate
        draw_job = self._draw_job
        while not self._stopped:
            gap = float(arrivals.exponential(scale))
            yield sim.timeout(gap)
            if self._stopped:
                return
            self.submitted += 1
            self.submit(*draw_job())
