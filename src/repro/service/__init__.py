"""Transfer-service control plane: a long-running broker in the kernel.

The paper's result is a *single-transfer* win — NUMA-aware placement of
RFTP rails recovers line-rate goodput.  This package restates it as a
*fleet-level* SLO win: a simulated long-running transfer service admits
a stream of user jobs (Poisson arrivals, heavy-tailed file sizes),
enforces per-tenant quotas and aggregate rail-bandwidth budgets,
and packs admitted jobs onto NUMA-appropriate rails.  Everything runs
*inside* the discrete-event kernel: arrivals are simulator events, jobs
are fluid flows, and completions come from the fluid scheduler — so a
service scenario is exactly as deterministic, cacheable and
parallelisable as any other :class:`~repro.exec.task.SimTask`.

Layers (one module each):

* :mod:`repro.service.workload` — arrival/size/tenant generators drawn
  from dedicated ``service.*`` RNG streams;
* :mod:`repro.service.fleet` — the rails: front-end hosts cabled to
  sink peers, with the socket locality of every NIC exposed through
  :func:`repro.rdma.fabric.rail_locality_map`;
* :mod:`repro.service.scheduler` — pluggable placement policies
  (``fifo``, ``numa-aware``, ``numa-blind``);
* :mod:`repro.service.broker` — admission control, bounded queueing,
  the session API (list/inspect/cancel), fault-driven rescheduling, and
  crash-tolerant restart (journal replay, paced backlog drain);
* :mod:`repro.service.journal` — the write-ahead job journal a crashed
  broker replays to recover its control state exactly once.
"""

from repro.service.broker import (
    BrokerConfig,
    JobState,
    ServiceStats,
    TransferBroker,
)
from repro.service.fleet import Rail, RailFleet
from repro.service.journal import JobJournal, JournalSnapshot
from repro.service.scheduler import POLICIES, pick_rail
from repro.service.workload import WorkloadConfig, WorkloadGenerator

__all__ = [
    "BrokerConfig",
    "JobJournal",
    "JobState",
    "JournalSnapshot",
    "POLICIES",
    "Rail",
    "RailFleet",
    "ServiceStats",
    "TransferBroker",
    "WorkloadConfig",
    "WorkloadGenerator",
    "pick_rail",
]
