"""Fleet-scale fabric: N-host/M-tenant pods over cut WAN links.

This is the datacenter the ROADMAP's north star asks about, assembled
from the pieces the paper calibrated: each **pod** is a
:class:`~repro.service.fleet.RailFleet` (front-end hosts with
NUMA-local RoCE rails), served by its own broker and workload, with a
pod **uplink** funnelling cross-fabric traffic onto one of the fabric's
WAN links.  WAN links are the shard cut (:mod:`repro.sim.shard`): a pod
is one *cell*, its NUMA-local rails never cross a shard boundary, and
only per-epoch boundary flow rates are exchanged between pods.

Two kinds of cross-boundary traffic exercise the exchange protocol:

* **WAN tenants** — tenants ``tenant0..tenant{wan_tenants-1}`` ship
  their jobs out the pod uplink and across the pod's WAN link instead
  of to the local sink;
* **elephants** — long-lived replication flows per pod, optionally
  skewed per cell, giving the cut links a deterministic standing load
  (and the differential suite its closed-form scenarios).

The :class:`FleetBroker` adds the RDMAvisor-style admission taxes from
:mod:`repro.rdma.qpool`: every job acquires a QP on its rail's NIC
(pooled or per-job), pays the CM setup delay before its flow starts,
and runs at the QP-cache thrash derate sampled at admission.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.faults.injector import faults_active
from repro.faults.plan import FaultPlan
from repro.rdma.qpool import QP_MODES, QpPoolSet
from repro.service.broker import BrokerConfig, TransferBroker
from repro.service.fleet import Rail, RailFleet
from repro.service.workload import N_TENANTS, WorkloadConfig
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow, FluidResource
from repro.sim.shard import BoundaryLink, BoundaryPort, run_sharded, run_unsharded
from repro.util.units import MIB
from repro.util.validation import check_non_negative, check_positive

__all__ = ["FabricSpec", "FleetBroker", "boundary_links", "fleet_cell",
           "run_fabric"]

#: One Gbit/s in bytes/second.
_GBPS = 1e9 / 8.0

#: Pod uplink rate (Gbit/s) funnelling cross-fabric traffic to the WAN.
UPLINK_GBPS = 80.0
#: Boundary-exchange epoch (seconds): grants are re-cut once per epoch.
EPOCH_S = 1.0
#: Per-pod broker queue bound (jobs); twice ``BrokerConfig``'s default.
MAX_QUEUE = 512
#: Pods per power domain: ``power:<d>`` cuts pods ``d*k .. d*k+k-1``.
PODS_PER_POWER = 4


@dataclass(frozen=True)
class FabricSpec:
    """One fleet scenario: topology, workload, horizon.

    Broker admission, QP/CM cliffs and tenant count are module
    constants: :data:`~repro.service.broker.TENANT_QUOTA`,
    :data:`~repro.service.broker.BUDGET_FRACTION` and
    :data:`~repro.service.broker.RECOVERY_RATE`; the
    :mod:`repro.rdma.qpool` cliff constants (``qp_mode`` picks the
    pool's mode); :data:`~repro.service.workload.N_TENANTS`.  The queue
    bound is :data:`MAX_QUEUE`.
    """

    n_pods: int = 2
    hosts_per_pod: int = 8
    #: WAN links; pod *p* egresses over ``wan{p % n_wan_links}``, so
    #: there may be no more of them than pods.
    n_wan_links: int = 1
    wan_gbps: float = 100.0
    #: Long-lived replication flows per pod and their per-flow cap.
    elephants_per_pod: int = 2
    elephant_gbps: float = 4.0
    #: Per-cell elephant-cap skew: cap *= (1 + skew * cell).
    elephant_skew: float = 0.0
    #: Job arrivals per host per second; 0 disables the workload.
    rate_per_host: float = 0.0
    size_mean_mib: float = 64.0
    #: Tenants whose jobs cross the WAN (the first this-many indices).
    wan_tenants: int = 2
    #: Arrivals stop at ``serve_s``; the sim drains until ``horizon_s``.
    serve_s: float = 8.0
    horizon_s: float = 10.0
    #: QP accounting: "pooled" / "per-job" / "off".
    qp_mode: str = "pooled"
    #: Crash tolerance, forwarded into BrokerConfig: keep a job journal.
    journal: bool = True

    def __post_init__(self) -> None:
        check_positive("n_pods", self.n_pods)
        check_positive("hosts_per_pod", self.hosts_per_pod)
        check_positive("n_wan_links", self.n_wan_links)
        if self.n_wan_links > self.n_pods:
            raise ValueError(
                f"n_wan_links ({self.n_wan_links}) exceeds n_pods "
                f"({self.n_pods}): a WAN link no pod crosses")
        check_positive("wan_gbps", self.wan_gbps)
        check_non_negative("rate_per_host", self.rate_per_host)
        if self.qp_mode not in QP_MODES:
            raise ValueError(
                f"qp_mode must be one of {QP_MODES}, got {self.qp_mode!r}")
        if self.wan_tenants > N_TENANTS:
            raise ValueError(
                f"wan_tenants cannot exceed the {N_TENANTS} tenants")
        if self.serve_s > self.horizon_s:
            raise ValueError("serve_s cannot exceed horizon_s")

    @property
    def n_hosts(self) -> int:
        return self.n_pods * self.hosts_per_pod


def boundary_links(spec: FabricSpec) -> list[BoundaryLink]:
    """The cut link each pod crosses: pod *p* egresses over
    ``wan{p % n_wan_links}``."""
    wan = [BoundaryLink(f"wan{k}", spec.wan_gbps * _GBPS)
           for k in range(spec.n_wan_links)]
    return [wan[p % spec.n_wan_links] for p in range(spec.n_pods)]


class FleetBroker(TransferBroker):
    """A pod broker: WAN-tenant routing + QP/CM admission taxes."""

    def __init__(self, ctx: Context, fleet: RailFleet,
                 config: BrokerConfig,
                 workload: Optional[WorkloadConfig],
                 uplink: FluidResource, port: BoundaryPort, *,
                 wan_tenants: int, qpool: Optional[QpPoolSet], name: str):
        super().__init__(ctx, fleet, config, workload, name=name)
        self.uplink = uplink
        self.port = port
        self.wan_tenants = wan_tenants
        self.qpool = qpool
        self.wan_jobs = 0

    def _is_wan(self, tenant: str) -> bool:
        try:
            return int(tenant[6:]) < self.wan_tenants
        except ValueError:
            return False

    def _wan_route(self, rail: Rail, buffer_node: int):
        """Memoized static WAN egress route: ``(path, cap, remote)``.

        Shares the broker's ``_path_cache`` (and its fault-driven
        invalidation); the per-job QP tax and boundary-port leg stay
        live in ``_job_path`` — only the host-to-uplink spine and its
        placement-derated cap are static per (rail, buffer node).
        """
        key = ("wan", rail.index, buffer_node)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        nic = rail.nic
        path = nic.dma_read_path(buffer_node)
        path.append((rail.link.direction(nic), 1.0))
        path.append((self.uplink, 1.0))
        cap = rail.rate
        remote = buffer_node != rail.node
        if remote:
            cap *= self.ctx.cal.remote_access_derate
        hit = (tuple(path), cap, remote)
        self._path_cache[key] = hit
        return hit

    def _job_path(self, job, rail: Rail, buffer_node: int):
        wan = self._is_wan(job.tenant)
        if wan:
            path, cap, remote = self._wan_route(rail, buffer_node)
            if remote:
                self.stats.count("remote_placements")
            delay, charges = 0.0, ()
        else:
            path, cap, delay, charges = super()._job_path(
                job, rail, buffer_node)
        if self.qpool is not None:
            derate, setup = self.qpool.acquire(rail.index, job.tenant)
            cap *= derate
            delay += setup
        if wan:
            # The boundary leg goes last so the port sees the flow's
            # final cap (its hungry-vs-pinned classification input).
            self.wan_jobs += 1
            leg, port_charges = self.port.flow_leg(cap=cap)
            path = tuple(path) + tuple(leg)
            charges = tuple(charges) + tuple(port_charges)
        return path, cap, delay, charges

    def _job_released(self, job) -> None:
        if self.qpool is not None and job.rail is not None:
            self.qpool.release(job.rail.index, job.tenant)


def fleet_cell(*, ctx: Context, cell: int, port: BoundaryPort,
               horizon: float, spec: dict):
    """Shard cell target: build and serve one pod; ledger at ``finish()``."""
    s = FabricSpec(**spec)
    fleet = RailFleet(ctx, n_hosts=s.hosts_per_pod, name_prefix=f"pod{cell}-")
    # Fleet topology as failure domains: the pod's ToR is its rail set
    # (`tor:<cell>`), and pods share power domains in blocks of
    # `PODS_PER_POWER` (`power:<cell // PODS_PER_POWER>`).  Under
    # sharding each cell registers only its own pod, so a tor:/power:
    # cut lands on exactly the cells it covers — the same correlated
    # link set the unsharded reference expands.
    inj = faults_active(ctx)
    if inj is not None:
        pod_links = [r.link for r in fleet.rails]
        inj.register_domain("tor", str(cell), pod_links)
        inj.register_domain("power", str(cell // PODS_PER_POWER), pod_links)
    uplink = FluidResource(ctx.fluid, UPLINK_GBPS * _GBPS,
                           f"pod{cell}/uplink")
    uplink.kind = "link"  # type: ignore[attr-defined]
    qpool = None
    if s.qp_mode != "off":
        qpool = QpPoolSet(ctx, s.qp_mode)
    workload = None
    if s.rate_per_host > 0.0:
        workload = WorkloadConfig(
            rate=s.rate_per_host * s.hosts_per_pod,
            size_mean=s.size_mean_mib * MIB)
    broker = FleetBroker(
        ctx, fleet, BrokerConfig(max_queue=MAX_QUEUE, journal=s.journal),
        workload, uplink=uplink, port=port, wan_tenants=s.wan_tenants,
        qpool=qpool, name=f"pod{cell}")
    elephants = []
    for i in range(s.elephants_per_pod):
        cap = s.elephant_gbps * _GBPS * (1.0 + s.elephant_skew * cell)
        leg, charges = port.flow_leg(cap=cap)
        flow = FluidFlow([(uplink, 1.0)] + leg, size=None, cap=cap,
                         charges=charges, name=f"pod{cell}/eleph{i}")
        elephants.append(flow)
        ctx.fluid.start(flow)
    if broker.generator is not None:
        broker.serve()
        if s.serve_s < horizon:
            ctx.sim.timeout(s.serve_s).add_callback(
                lambda _ev: broker.drain())

    def finish() -> dict:
        for flow in elephants:
            if flow._active:
                ctx.fluid.stop(flow)
        ledger = {
            "pod": cell,
            **broker.stats.as_dict(),
            "queued": broker.queued,
            "running": broker.running,
            "wan_jobs": broker.wan_jobs,
            "wan_bytes": port.transferred,
            "elephant_bytes": [f.transferred for f in elephants],
            "latencies_s": broker.latencies,
            "qpool": None if qpool is None else qpool.as_dict(),
            "audit": broker.audit(),
            "goodput_timeline": broker.goodput_timeline(),
        }
        return ledger

    return finish


def run_fabric(spec: FabricSpec | dict, *, seed: int = 0, cal=None,
               sharded: bool = True, fixed_rounds: int = 0,
               faults: FaultPlan | None = None) -> dict:
    """One fabric scenario through the sharded (or reference) runtime,
    every cell armed with *faults* (None: the run-wide plan)."""
    if isinstance(spec, dict):
        spec = FabricSpec(**spec)
    common = dict(
        target="repro.service.fabric:fleet_cell",
        links=boundary_links(spec),
        horizon=spec.horizon_s,
        epoch_dt=EPOCH_S,
        params={"spec": asdict(spec)},
        seed=seed, cal=cal, faults=faults,
    )
    if sharded:
        return run_sharded(**common, fixed_rounds=fixed_rounds)
    return run_unsharded(**common)
