"""The transfer broker: admission control, scheduling, sessions, recovery.

A :class:`TransferBroker` is the control plane of one simulated
transfer service.  Jobs arrive (usually from a
:class:`~repro.service.workload.WorkloadGenerator`), pass admission
control, wait in a bounded FIFO queue, and run as fluid flows across
the fleet's rails; completions come back from the fluid scheduler as
ordinary events.  Everything is deterministic per seed.

**Admission** enforces two budgets:

* a per-tenant quota on *concurrent running jobs* (:data:`TENANT_QUOTA`)
  — a tenant over quota queues (it is not dropped), which is the
  multi-tenant fairness RDMAvisor-style sharing needs;
* an aggregate rail-bandwidth budget — the summed nominal demand of
  running jobs may not exceed :data:`BUDGET_FRACTION` times the fleet's
  rail capacity, bounding oversubscription of the fabric.

The queue itself is bounded: a submission that cannot start and finds
the queue full is **shed** and accounted per tenant (load shedding, not
silent loss).

**Scheduling** delegates placement to
:func:`repro.service.scheduler.pick_rail` (``fifo`` / ``numa-aware`` /
``numa-blind``).  A job placed on a rail local to its buffer runs at
the rail's full stream rate; a remote placement crosses QPI and pays
the calibrated remote-access stream derate — the paper's single-
transfer placement penalty, applied per job.

**Sessions** follow the middleware idiom (``iscsi.global.sessions``):
:meth:`sessions` lists live jobs, :meth:`session` inspects one,
:meth:`cancel` stops one mid-transfer and reclaims its quota and
bandwidth credits immediately.

**Faults**: with an active injector the broker registers as a transfer
listener; a dead rail's jobs are stopped, their remaining bytes
requeued at the head of the queue, and rescheduled onto surviving
rails (counted per job in ``reschedules``).

**Crash tolerance**: the broker itself is a fault target
(``crash@transfer:<name>``).  While down it refuses submissions
(counted ``dropped``) and observes nothing; the data plane — running
fluid flows — survives.  On restart a *journaled* broker replays its
write-ahead :class:`~repro.service.journal.JobJournal`, reconciles
against the surviving flows (late completions counted exactly once,
banked bytes preserved), re-adopts still-running work without touching
its connections, and drains the queued backlog through a
reconnect-rate limiter so restart cannot trigger a CM storm.  An
*amnesiac* broker (``journal=False``) loses the queue and orphans its
running flows — the availability gap ``ext-availability`` measures.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import metrics
from repro.faults.injector import faults_active
from repro.faults.recovery import REQUEUE_EPSILON_BYTES as _EPSILON_BYTES
from repro.service.fleet import Rail, RailFleet
from repro.service.journal import JobJournal
from repro.service.scheduler import POLICIES, pick_rail
from repro.service.workload import WorkloadConfig, WorkloadGenerator
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow
from repro.util.validation import check_positive

__all__ = ["BrokerConfig", "JobState", "ServiceStats", "TransferBroker"]


class JobState(enum.Enum):
    """Lifecycle of one transfer job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    SHED = "shed"
    CANCELLED = "cancelled"
    #: Forgotten by an amnesiac broker restart (queued work vanished,
    #: orphaned flows torn down, unobserved completions never accounted).
    LOST = "lost"


#: Max concurrent *running* jobs per tenant (over-quota jobs queue).
TENANT_QUOTA = 8
#: Aggregate running nominal demand <= fraction x fleet rail rate.
BUDGET_FRACTION = 1.5
#: Restart backlog drain rate (job starts/second) after a crash.
RECOVERY_RATE = 64.0


@dataclass(frozen=True)
class BrokerConfig:
    """Scheduling policy, queue bound and journaling of one broker."""

    policy: str = "numa-aware"
    #: Bounded queue length; a submission finding it full is shed.
    max_queue: int = 256
    #: Keep a write-ahead job journal while a fault injector is armed
    #: (pure bookkeeping on fault-free paths; see repro.service.journal).
    journal: bool = True

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}")
        check_positive("max_queue", self.max_queue)


#: Process-wide broker counters (the ``service`` registry layer).
#: ``failed`` never counts (no path fails a job) but stays registered:
#: availability ledgers report it and benchmark reps read it by name.
_TOTALS = metrics.counters(
    "service", submitted=0, completed=0, shed=0, cancelled=0,
    rescheduled=0, remote_placements=0, bytes_completed=0.0, crashes=0,
    replayed=0, lost=0, lost_bytes=0.0, dropped=0, failed=0)


class ServiceStats(metrics.Counters):
    """One broker's counters; each also counts into the ``service`` layer."""

    _totals = _TOTALS

    @staticmethod
    def process_totals() -> dict:
        """The ``service`` registry layer as a plain dict."""
        return dict(_TOTALS)


@dataclass(eq=False, slots=True)
class _Job:
    """Broker-internal job record (sessions render it to plain dicts)."""

    job_id: int
    tenant: str
    size: float
    touch_node: int
    submitted_at: float
    state: JobState = JobState.QUEUED
    remaining: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    rail: Optional[Rail] = None
    buffer_node: Optional[int] = None
    flow: Optional[FluidFlow] = None
    reschedules: int = 0
    #: Bytes completed by earlier flow generations (pre-reschedule).
    banked: float = 0.0


def _tenant_row() -> Dict[str, Any]:
    return {"submitted": 0, "completed": 0, "shed": 0, "cancelled": 0,
            "rescheduled": 0, "bytes": 0.0}


class TransferBroker:
    """One long-running transfer service over one :class:`RailFleet`."""

    def __init__(self, ctx: Context, fleet: RailFleet,
                 config: BrokerConfig = BrokerConfig(),
                 workload: Optional[WorkloadConfig] = None,
                 name: str = "service"):
        self.ctx = ctx
        self.fleet = fleet
        self.config = config
        self.name = name
        self.stats = ServiceStats()
        self.tenants: Dict[str, Dict[str, Any]] = {}
        self._jobs: Dict[int, _Job] = {}
        self._queue: Deque[_Job] = deque()
        self._next_id = 1
        self._cursor = 0  # fifo policy round-robin position
        self._running_by_tenant: Dict[str, int] = {}
        self._nominal = min(r.rate for r in fleet.rails)
        self._budget = BUDGET_FRACTION * fleet.total_rate
        self._budget_used = 0.0
        self._latencies: List[float] = []
        #: Memoized static routes keyed (rail.index, buffer_node); cleared
        #: on fault-driven topology change (on_link_down / on_link_up).
        self._path_cache: Dict[Any, Any] = {}
        self.generator: Optional[WorkloadGenerator] = None
        if workload is not None:
            self.generator = WorkloadGenerator(
                ctx, workload, self.submit,
                n_nodes=fleet.hosts[0].n_nodes)
        # Fault integration is opt-in by plan: with no active injector
        # the broker registers nothing and the hooks below never run.
        inj = faults_active(ctx)
        self._inj = inj
        if inj is not None:
            inj.add_transfer(name, self)
        # Crash-tolerance state.  The journal only exists while an
        # injector is armed: no injector means no crash fault can fire,
        # and a fault-free run must not pay even the append cost.
        self.journal = JobJournal() if config.journal and inj is not None else None
        self._crashed = False
        #: Flow completions observed while crashed: reconciled (journaled)
        #: or forgotten (amnesiac) at restart.
        self._pending_done: List[Tuple[_Job, FluidFlow]] = []
        self._recovering = False
        self._pacer_gen = 0
        #: (time, bytes) per completion while an injector is armed — the
        #: goodput timeline MTTR curves are cut from.
        self._completion_log: List[Tuple[float, float]] = []

    # -- ingress -----------------------------------------------------------
    def serve(self) -> None:
        """Start accepting the configured workload (begins arrivals)."""
        if self.generator is None:
            raise RuntimeError(f"broker {self.name!r} has no workload attached")
        self.generator.start()

    def drain(self) -> None:
        """Stop the arrival process (running jobs keep going)."""
        if self.generator is not None:
            self.generator.stop()

    def submit(self, tenant: str, size: float, touch_node: int = 0) -> Optional[int]:
        """Submit one job; returns its session id, or None when shed."""
        check_positive("size", size)
        if self._crashed:
            # A dead control plane accepts nothing: the client's request
            # vanishes (no job record, no journal entry, no session id).
            self.stats.count("dropped")
            return None
        size = float(size)
        job = _Job(
            job_id=self._next_id, tenant=tenant, size=size,
            touch_node=touch_node, submitted_at=self.ctx.now,
            remaining=size,
        )
        self._next_id += 1
        self.stats.count("submitted")
        row = self.tenants.get(tenant)
        if row is None:
            row = self.tenants[tenant] = _tenant_row()
        row["submitted"] += 1
        self._jobs[job.job_id] = job
        self._queue.append(job)
        if self.journal is not None:
            self.journal.log_submit(job.job_id)
        self._dispatch()
        if job.state is JobState.QUEUED and len(self._queue) > self.config.max_queue:
            # Bounded queue: the newcomer is shed, not an older job.
            self._queue.remove(job)
            job.state = JobState.SHED
            job.finished_at = self.ctx.now
            if self.journal is not None:
                self.journal.log_terminal(job.job_id)
            self.stats.count("shed")
            row["shed"] += 1
            return None
        return job.job_id

    # -- admission + dispatch ----------------------------------------------
    def _dispatch(self, limit: Optional[int] = None,
                  force: bool = False) -> None:
        """Start every queued job that admission and placement allow.

        Scans in FIFO order; jobs blocked on quota or budget are skipped
        rather than head-of-line blocking unrelated tenants.  The pass
        defers every zero-delay launch and starts them through one bulk
        ``start_many`` settle.  Control-plane decisions are identical to
        one-by-one starts: placement reads rail loads, which ``_start``
        updates immediately.

        While crashed nothing dispatches; while draining a restart
        backlog only the pacer itself dispatches (``force``), with
        *limit* bounding each paced pass to one connection setup.
        """
        if self._crashed or (self._recovering and not force):
            return
        if not self._queue:
            return
        batch: List[Tuple[_Job, FluidFlow]] = []
        started: List[_Job] = []
        # Both admission clauses only tighten while the scan runs (starts
        # consume quota and budget; nothing frees them mid-scan), so a
        # tenant that fails quota stays failed for the rest of the scan
        # and a budget failure ends it.  Skipping on those facts is a
        # pure shortcut: the skipped iterations had no side effects.
        quota = TENANT_QUOTA
        policy = self.config.policy
        rails = self.fleet.rails
        running = self._running_by_tenant
        nominal = self._nominal
        budget = self._budget
        over_quota: set = set()
        for job in self._queue:
            if self._budget_used + nominal > budget:
                break  # budget exhausted: nothing else is admissible
            tenant = job.tenant
            if tenant in over_quota:
                continue
            if running.get(tenant, 0) >= quota:
                over_quota.add(tenant)
                continue
            rail, buffer_node, self._cursor = pick_rail(
                rails, policy, job.touch_node, self._cursor)
            if rail is None:
                break  # no live rails: leave the queue intact
            self._start(job, rail, buffer_node, batch)
            started.append(job)
            if limit is not None and len(started) >= limit:
                break
        for job in started:
            self._queue.remove(job)
        if batch:
            self._launch_many(batch)

    def _base_route(self, rail: Rail, buffer_node: int):
        """Memoized static rail route: ``(path, cap, remote)``.

        The route, its capacity, and whether the placement is remote
        depend only on (rail, buffer node) — never on the job — so they
        are computed once and cached until a fault changes the topology
        (see :meth:`on_link_down` / :meth:`on_link_up`).  Per-job taxes
        (stats, QP acquisition, boundary legs) stay in ``_job_path``.
        """
        key = (rail.index, buffer_node)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        nic, peer = rail.nic, rail.peer
        path = nic.dma_read_path(buffer_node)
        path.append((rail.link.direction(nic), 1.0))
        path += peer.dma_write_path(peer.node)
        cap = rail.rate
        remote = buffer_node != rail.node
        if remote:
            # Remote DMA read: the stream derates even uncontended (the
            # placement penalty the paper's NUMA tuning removes).
            cap *= self.ctx.cal.remote_access_derate
        hit = (tuple(path), cap, remote)
        self._path_cache[key] = hit
        return hit

    def _job_path(self, job: _Job, rail: Rail, buffer_node: int):
        """The job's fluid route: ``(path, cap, setup_delay, charges)``.

        Subclasses override this to reroute classes of jobs (e.g. the
        fleet broker sends WAN tenants out the pod uplink) or to tax
        admission (QP-cache derates, CM setup delays).  The default is
        the paper's host-to-sink rail route with the NUMA placement
        penalty and no delay.
        """
        path, cap, remote = self._base_route(rail, buffer_node)
        if remote:
            self.stats.count("remote_placements")
        return path, cap, 0.0, ()

    def _start(self, job: _Job, rail: Rail, buffer_node: int,
               batch: List[Tuple["_Job", FluidFlow]]) -> None:
        path, cap, delay, charges = self._job_path(job, rail, buffer_node)
        flow = FluidFlow(
            path, size=job.remaining, cap=cap, charges=charges,
            name=f"{self.name}-j{job.job_id}g{job.reschedules}",
        )
        job.state = JobState.RUNNING
        job.rail = rail
        job.buffer_node = buffer_node
        job.flow = flow
        if job.started_at is None:
            job.started_at = self.ctx.now
        if self.journal is not None:
            self.journal.log_start(job.job_id)
        rail.jobs[job] = None
        self._running_by_tenant[job.tenant] = (
            self._running_by_tenant.get(job.tenant, 0) + 1)
        self._budget_used += self._nominal
        if delay > 0.0:
            # Setup tax (e.g. a CM handshake): the job holds its rail
            # slot and credits but moves no bytes until the delay runs.
            self.ctx.sim.timeout(delay).add_callback(
                lambda _ev, job=job, flow=flow: self._launch(job, flow))
        else:
            batch.append((job, flow))

    def _launch(self, job: _Job, flow: FluidFlow) -> None:
        if job.state is not JobState.RUNNING or job.flow is not flow:
            return  # cancelled or rescheduled during its setup delay
        done = self.ctx.fluid.start(flow)
        done.add_callback(lambda _ev, job=job, flow=flow:
                          self._on_done(job, flow))

    def _launch_many(
        self, batch: List[Tuple["_Job", FluidFlow]],
    ) -> None:
        """Start a dispatch pass's deferred flows in one bulk settle."""
        live = [(job, flow) for job, flow in batch
                if job.state is JobState.RUNNING and job.flow is flow]
        events = self.ctx.fluid.start_many([flow for _job, flow in live])
        for (job, flow), done in zip(live, events):
            done.add_callback(lambda _ev, job=job, flow=flow:
                              self._on_done(job, flow))

    def _halt(self, job: _Job) -> float:
        """Stop the job's flow (if it ever started) and return its bytes."""
        flow = job.flow
        if flow is None:
            return 0.0
        if flow._active:
            return self.ctx.fluid.stop(flow)
        return flow.transferred  # still in setup delay: nothing moved

    def _job_released(self, job: _Job) -> None:
        """Hook: the job is giving back its rail slot (subclass taps)."""

    def _release(self, job: _Job) -> None:
        """Return the job's rail slot, quota and bandwidth credits."""
        self._job_released(job)
        if job.rail is not None:
            job.rail.jobs.pop(job, None)
        self._running_by_tenant[job.tenant] -= 1
        self._budget_used -= self._nominal
        job.rail = None
        job.flow = None

    def _on_done(self, job: _Job, flow: FluidFlow) -> None:
        if self._crashed:
            # The data plane finished a transfer nobody was watching.
            # Hold the observation; restart reconciles it (journaled)
            # or forgets it ever happened (amnesiac).
            self._pending_done.append((job, flow))
            return
        # Cancel and reschedule paths stop the flow themselves (which
        # also fires this callback) after updating the job's state, so
        # anything but a RUNNING job on its current flow is stale here.
        if job.state is not JobState.RUNNING or job.flow is not flow:
            return
        job.banked += flow.transferred
        self._complete(job)
        self._dispatch()

    def _complete(self, job: _Job, release: bool = True) -> None:
        """Account one completion exactly once (live or replayed)."""
        job.state = JobState.COMPLETED
        job.finished_at = self.ctx.now
        if release:
            self._release(job)
        self._latencies.append(job.finished_at - job.submitted_at)
        self.stats.count("completed", 1, "bytes_completed", job.size)
        if self.journal is not None:
            self.journal.log_terminal(job.job_id)
        if self._inj is not None:
            self._completion_log.append((self.ctx.now, job.size))
        row = self.tenants[job.tenant]
        row["completed"] += 1
        row["bytes"] += job.size

    # -- session API (the iscsi.global.sessions idiom) ---------------------
    def _session_row(self, job: _Job) -> Dict[str, Any]:
        transferred = job.banked
        if job.flow is not None:
            transferred += job.flow.transferred
        return {
            "id": job.job_id,
            "tenant": job.tenant,
            "state": job.state.value,
            "size": job.size,
            "transferred": transferred,
            "rail": None if job.rail is None else job.rail.index,
            "buffer_node": job.buffer_node,
            "touch_node": job.touch_node,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "reschedules": job.reschedules,
        }

    def sessions(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        """Live (queued or running) sessions, oldest first."""
        return [
            self._session_row(job)
            for job in self._jobs.values()
            if job.state in (JobState.QUEUED, JobState.RUNNING)
            and (tenant is None or job.tenant == tenant)
        ]

    def session(self, job_id: int) -> Dict[str, Any]:
        """Inspect one session (any state); raises KeyError if unknown."""
        return self._session_row(self._jobs[job_id])

    def cancel(self, job_id: int) -> bool:
        """Cancel a queued or running session; reclaims its credits.

        Returns True if the job was cancelled, False if it had already
        reached a terminal state.
        """
        if self._crashed:
            return False  # nobody is listening
        job = self._jobs[job_id]
        if job.state is JobState.QUEUED:
            self._queue.remove(job)
            job.state = JobState.CANCELLED
        elif job.state is JobState.RUNNING:
            job.state = JobState.CANCELLED
            job.banked += self._halt(job)
            self._release(job)
        else:
            return False
        job.finished_at = self.ctx.now
        if self.journal is not None:
            self.journal.log_terminal(job.job_id)
        self.stats.count("cancelled")
        self.tenants[job.tenant]["cancelled"] += 1
        self._dispatch()
        return True

    # -- fault hooks (invoked by an active FaultInjector only) -------------
    def _reschedule_rail(self, rail: Rail) -> None:
        """Kill a dead rail's jobs and requeue their remaining bytes."""
        victims = sorted(rail.jobs, key=lambda j: j.job_id)
        for job in victims:
            job.state = JobState.QUEUED  # before stop: staleness guard
        # Bulk halt: one settle covers every victim; the accounting loop
        # below then reads the already-frozen ``transferred`` values
        # (``_halt`` on a deactivated flow is a pure read).
        active = [job.flow for job in victims
                  if job.flow is not None and job.flow._active]
        if active:
            self.ctx.fluid.finish_many(active)
        for job in victims:
            job.banked += self._halt(job)
            self._release(job)
            job.remaining = job.size - job.banked
            job.reschedules += 1
            self.stats.count("rescheduled")
            self.tenants[job.tenant]["rescheduled"] += 1
            if job.remaining <= _EPSILON_BYTES:
                # it was done modulo float dust: count the completion
                self._complete(job, release=False)
        # Requeue in submit order ahead of newer arrivals.
        for job in reversed(victims):
            if job.state is JobState.QUEUED:
                if self.journal is not None:
                    self.journal.log_requeue(job.job_id, job.banked)
                self._queue.appendleft(job)

    def on_link_down(self, link, permanent: bool) -> None:
        """Injector hook: a rail's link went dark — reschedule its jobs."""
        rail = self.fleet.rail_for_link(link)
        if rail is None or not rail.alive:
            return
        rail.alive = False
        self._path_cache.clear()  # topology changed: drop memoized routes
        if self._crashed:
            # No control plane to reschedule: the restart reconciles the
            # dead rail's stranded jobs (journaled) or loses them.
            return
        self._reschedule_rail(rail)
        self._dispatch()

    def on_link_up(self, link) -> None:
        """Injector hook: a dead rail returned — resume scheduling on it."""
        rail = self.fleet.rail_for_link(link)
        if rail is None or rail.alive:
            return
        rail.alive = True
        self._path_cache.clear()  # topology changed: drop memoized routes
        self._dispatch()

    def on_crash(self, restart_delay: float) -> None:
        """Injector hook (``crash@transfer:<name>``): the broker dies.

        The data plane survives — running fluid flows keep moving bytes
        — but the control plane goes dark: submissions drop, completions
        go unobserved, dead rails go unhandled.  After *restart_delay*
        seconds the broker restarts and reconciles (see ``_restart``).
        """
        if self._crashed:
            return
        self._crashed = True
        self.stats.count("crashes")
        self._pacer_gen += 1  # orphan any in-flight recovery pacer
        self._recovering = False
        self.ctx.trace.emit("service", "crash", broker=self.name,
                            restart_delay=restart_delay)
        self.ctx.sim.timeout(max(0.0, restart_delay)).add_callback(
            lambda _ev: self._restart())

    def _restart(self) -> None:
        """Come back from a crash: reconcile (journaled) or forget."""
        self._crashed = False
        self.ctx.trace.emit(
            "service", "restart", broker=self.name,
            journaled=self.journal is not None,
            pending=len(self._pending_done))
        pending = self._pending_done
        self._pending_done = []
        self._path_cache.clear()
        if self.journal is None:
            self._restart_amnesiac(pending)
        else:
            self._restart_journaled(pending)

    def _restart_amnesiac(self, pending: List[Tuple[_Job, FluidFlow]]) -> None:
        """The baseline restart: no journal, so no memory of any job.

        Queued work vanishes, running flows are orphaned connections the
        fresh broker tears down, and completions that landed during the
        outage (*pending*) were never written anywhere — their bytes
        moved but are lost to the ledger.  Exactly the availability gap
        ``ext-availability`` quantifies.
        """
        for job, flow in pending:
            if job.state is not JobState.RUNNING or job.flow is not flow:
                continue
            job.banked += flow.transferred
            job.state = JobState.LOST
            job.finished_at = self.ctx.now
            self._release(job)
            self.stats.count("lost", 1, "lost_bytes", job.banked)
        for rail in self.fleet.rails:
            for job in sorted(rail.jobs, key=lambda j: j.job_id):
                job.banked += self._halt(job)
                self._release(job)
                job.state = JobState.LOST
                job.finished_at = self.ctx.now
                self.stats.count("lost", 1, "lost_bytes", job.banked)
        for job in list(self._queue):
            job.state = JobState.LOST
            job.finished_at = self.ctx.now
            self.stats.count("lost", 1, "lost_bytes", job.banked)
        self._queue.clear()
        self._dispatch()

    def _restart_journaled(self, pending: List[Tuple[_Job, FluidFlow]]) -> None:
        """Replay the journal and reconcile with the surviving data plane.

        Completions that landed during the outage are accounted exactly
        once (their latency honestly includes the outage); still-running
        flows are re-adopted in place — no teardown, no CM storm; the
        queued backlog is rebuilt with banked bytes intact and drained
        through the :data:`RECOVERY_RATE` pacer.
        """
        assert self.journal is not None
        for job, flow in pending:
            if job.state is not JobState.RUNNING or job.flow is not flow:
                continue  # superseded while crashed (e.g. rail death raced)
            job.banked += flow.transferred
            self._complete(job)
            self.stats.count("replayed")
        snap = self.journal.replay()
        # Rebuild the queue from the replayed snapshot.  Jobs the live
        # queue still holds are re-adopted; the rebuild also restores
        # banked bytes recorded in requeue entries (exactly-once: sizes
        # and banked bytes come from the journal, not guesses).
        self._queue.clear()
        for job_id in snap.queued:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue
            banked = snap.banked.get(job_id)
            if banked is not None and banked > job.banked:
                job.banked = banked
            job.remaining = job.size - job.banked
            self._queue.append(job)
            self.stats.count("replayed")
        # Dead rails that still hold stranded jobs (their link died while
        # the control plane was down) reschedule now.
        for rail in self.fleet.rails:
            if not rail.alive and rail.jobs:
                self._reschedule_rail(rail)
        if self._queue:
            # Reconnect-rate limiter: drain the backlog at RECOVERY_RATE
            # connection setups per second instead of one thundering herd.
            self._recovering = True
            self._pacer_gen += 1
            self.ctx.sim.process(
                self._drain_backlog(self._pacer_gen),
                name=f"{self.name}/recovery")

    def _drain_backlog(self, gen: int):
        """The recovery pacer: one paced dispatch per ``1/RECOVERY_RATE`` s."""
        gap = 1.0 / RECOVERY_RATE
        while (gen == self._pacer_gen and not self._crashed
               and self._queue):
            self._dispatch(limit=1, force=True)
            yield self.ctx.sim.timeout(gap)
        if gen == self._pacer_gen:
            self._recovering = False
            if not self._crashed:
                self._dispatch()

    # -- telemetry ---------------------------------------------------------
    @property
    def running(self) -> int:
        """Jobs currently running."""
        return sum(rail.load for rail in self.fleet.rails)

    @property
    def queued(self) -> int:
        """Jobs currently waiting in the admission queue."""
        return len(self._queue)

    @property
    def latencies(self) -> List[float]:
        """Completed-job sojourn times, completion order (a copy)."""
        return list(self._latencies)

    def latency_percentiles(self, qs=(50.0, 95.0, 99.0)) -> Dict[str, float]:
        """Sojourn-time percentiles (seconds) over completed jobs."""
        if not self._latencies:
            return {f"p{q:g}": float("nan") for q in qs}
        arr = np.asarray(self._latencies)
        return {f"p{q:g}": float(np.percentile(arr, q)) for q in qs}

    def summary(self) -> Dict[str, Any]:
        """One leg's worth of broker metrics (JSON-canonical)."""
        out: Dict[str, Any] = {
            "policy": self.config.policy,
            "rails": len(self.fleet.rails),
            "running": self.running,
            "queued": self.queued,
            **self.stats.as_dict(),
            **self.latency_percentiles(),
            "tenants": {t: dict(row) for t, row in sorted(self.tenants.items())},
        }
        return out

    def audit(self) -> Dict[str, Any]:
        """Exactly-once conservation check over every job ever admitted.

        The availability experiment and CI smoke gate on this: after any
        crash/restart sequence every submitted job must sit in exactly
        one terminal-or-live state, completed counts must match
        completed jobs one-for-one, and completed bytes must equal the
        sum of completed sizes (no loss, no double counting).
        """
        by_state: Dict[str, int] = {s.value: 0 for s in JobState}
        completed_bytes = 0.0
        for job in self._jobs.values():
            by_state[job.state.value] += 1
            if job.state is JobState.COMPLETED:
                completed_bytes += job.size
        live = by_state["queued"] + by_state["running"]
        terminal = (by_state["completed"] + by_state["shed"]
                    + by_state["cancelled"] + by_state["lost"])
        s = self.stats
        return {
            "by_state": by_state,
            "jobs_conserved": s.submitted == live + terminal,
            "completions_exact": s.completed == by_state["completed"],
            "bytes_exact": abs(s.bytes_completed - completed_bytes)
            <= max(1e-6, 1e-9 * completed_bytes),
            "unobserved": len(self._pending_done),
            "journaled": self.journal is not None,
            "journal_records": 0 if self.journal is None else len(self.journal),
            "crashes": s.crashes,
        }

    def goodput_timeline(self) -> List[Tuple[float, float]]:
        """(time, bytes) completion events (armed-injector runs only)."""
        return list(self._completion_log)
