"""Process-pool-safe legs for the transfer-service experiment.

Each leg stands up one :class:`~repro.service.fleet.RailFleet` (``hosts``
front-end/sink pairs, three 40 Gbps RoCE rails each), attaches a
:class:`~repro.service.broker.TransferBroker` under the requested
placement policy, and serves a seeded workload for ``duration`` seconds
of simulated time.  Arrivals then drain and in-flight jobs get a short
grace window to finish, so sustained-rate and latency numbers describe
the steady serving window, not a truncated tail.

Policy comparability is structural: the workload draws from its own
``service.*`` RNG streams and never consults the policy, so two legs at
one seed see byte-identical job streams and differ **only** in
placement.  The fault plan arrives as a plain ``faults`` spec-string
parameter (hashed into the result-cache identity); a non-empty plan
arms the context in place of any run-wide plan, and the broker
registers with its injector so dead rails reschedule, not stall.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.calibration import Calibration
from repro.util.units import MIB

__all__ = ["service_leg"]

#: Fraction of ``duration`` granted to in-flight jobs after drain.
GRACE_FRACTION = 0.5


def service_leg(*, seed: int, cal: Optional[Calibration], hosts: int,
                policy: str, rate_per_host: float, duration: float,
                size_mean_mib: float = 128.0, arrival: str = "poisson",
                faults: str = "") -> Dict[str, Any]:
    """One fleet run under *policy*; returns the broker's scorecard."""
    from repro.faults import FaultPlan
    from repro.service import (BrokerConfig, RailFleet, TransferBroker,
                               WorkloadConfig)
    from repro.sim.context import Context

    ctx = Context.create(seed=seed, cal=cal,
                         faults=FaultPlan.parse(faults) if faults else None)
    fleet = RailFleet(ctx, n_hosts=hosts)
    workload = WorkloadConfig(
        rate=rate_per_host * hosts,
        arrival=arrival,
        size_mean=size_mean_mib * MIB,
    )
    broker = TransferBroker(ctx, fleet, BrokerConfig(policy=policy),
                            workload=workload)

    broker.serve()
    ctx.sim.run(until=duration)
    broker.drain()
    ctx.sim.run(until=duration * (1.0 + GRACE_FRACTION))

    s = broker.summary()
    injector = getattr(ctx, "faults", None)
    active = s["queued"] + s["running"]
    out: Dict[str, Any] = {
        "policy": policy,
        "hosts": hosts,
        "rails": len(fleet.rails),
        "offered_rate": workload.rate,
        "duration": duration,
        "submitted": s["submitted"],
        "completed": s["completed"],
        "shed": s["shed"],
        "cancelled": s["cancelled"],
        "rescheduled": s["rescheduled"],
        "remote_placements": s["remote_placements"],
        "active_end": active,
        "jobs_per_s": s["completed"] / duration,
        "p50_ms": s["p50"] * 1e3,
        "p95_ms": s["p95"] * 1e3,
        "p99_ms": s["p99"] * 1e3,
        "bytes_completed": s["bytes_completed"],
        "tenants": s["tenants"],
        "conserved": (s["submitted"]
                      == s["completed"] + s["shed"] + s["cancelled"] + active),
        "faults_injected": (0 if injector is None
                            else injector.stats.faults_injected),
    }
    return out
