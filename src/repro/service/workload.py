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

Arrivals are Poisson: exponential gaps at ``rate`` events/s, each
event carrying ``burst`` jobs.

Size distributions (mean-parameterised):

* ``lognormal`` — heavy-tailed; ``sigma`` controls the tail and the
  underlying ``mu`` is solved so the draw mean equals ``size_mean``;
* ``fixed``     — every job is exactly ``size_mean`` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.context import Context
from repro.util.units import MIB
from repro.util.validation import check_positive

__all__ = ["SIZE_DISTS", "WorkloadConfig", "WorkloadGenerator"]

#: Supported file-size distributions (``fixed`` = every job is exactly
#: ``size_mean`` bytes, drawing nothing from the sizes stream).
SIZE_DISTS = ("lognormal", "fixed")


@dataclass(frozen=True)
class WorkloadConfig:
    """The job stream one broker serves."""

    #: Aggregate arrival events/second (jobs/second at ``burst`` 1).
    rate: float = 20.0
    size_dist: str = "lognormal"
    #: Mean file size in bytes (the distribution is solved to this mean).
    size_mean: float = 256 * MIB
    #: Lognormal sigma (tail weight) — ~1 gives a 10x p99/mean spread.
    lognormal_sigma: float = 1.0
    n_tenants: int = 8
    #: Jobs per arrival event.  1 reproduces the classic one-job-per-tick
    #: process exactly; > 1 submits a same-timestamp burst through the
    #: broker's ``submit_many`` (churn-heavy serving: group uploads,
    #: checkpoint fan-ins), exercising the coalesced settle path.
    burst: int = 1

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        check_positive("size_mean", self.size_mean)
        check_positive("n_tenants", self.n_tenants)
        check_positive("burst", self.burst)
        if self.size_dist not in SIZE_DISTS:
            raise ValueError(
                f"size_dist must be one of {SIZE_DISTS}, got {self.size_dist!r}")
        check_positive("lognormal_sigma", self.lognormal_sigma)


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
                 n_nodes: int = 2,
                 submit_many: Optional[Callable[[list], object]] = None):
        check_positive("n_nodes", n_nodes)
        self.ctx = ctx
        self.config = config
        self.submit = submit
        #: Optional bulk ingress for ``burst > 1`` arrivals; when absent
        #: a burst degrades to per-job ``submit`` calls (same draws).
        self.submit_many = submit_many
        self.n_nodes = n_nodes
        self.submitted = 0
        self._stopped = False

    # -- draws -------------------------------------------------------------
    def _draw_size(self) -> float:
        cfg = self.config
        if cfg.size_dist == "fixed":
            return float(cfg.size_mean)  # no draw: the stream is untouched
        mu, sigma = self._size_params
        return float(self._sizes.lognormal(mu, sigma))

    def _draw_job(self) -> tuple[str, float, int]:
        """One job's draws, in the per-job order: tenant, size, touch node."""
        names = self._tenant_names
        tenant = names[int(self._tenants.integers(len(names)))]
        size = self._draw_size()
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
        self._tenant_names = [f"tenant{i}" for i in range(cfg.n_tenants)]
        if cfg.size_dist == "lognormal":
            # mu solved so the draw mean is size_mean
            sigma = cfg.lognormal_sigma
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
        burst = cfg.burst
        draw_job = self._draw_job
        while not self._stopped:
            gap = float(arrivals.exponential(scale))
            yield sim.timeout(gap)
            if self._stopped:
                return
            if burst == 1:
                # The classic per-tick process, draw-for-draw identical
                # to every pre-burst seed.
                self.submitted += 1
                self.submit(*draw_job())
                continue
            # Burst: one arrival event carries cfg.burst jobs, each with
            # its own draws in the per-job order (tenant, size, touch).
            jobs = [draw_job() for _ in range(burst)]
            self.submitted += len(jobs)
            if self.submit_many is not None:
                self.submit_many(jobs)
            else:
                for tenant, size, touch_node in jobs:
                    self.submit(tenant, size, touch_node)
