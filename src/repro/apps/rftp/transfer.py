"""RFTP sustained-transfer engine (the fluid data plane).

One :class:`RftpTransfer` stands for one direction of an end-to-end run:
data is loaded at the source (from a filesystem over the SAN, or from
``/dev/zero`` for WAN memory-to-memory tests), pushed with RDMA WRITE
over every available RoCE link in parallel streams, and offloaded at the
sink (filesystem or ``/dev/null``).

RFTP's design choices map to the model like this (refs [21-23]):

* **pipelining** — load, transmit and offload run on separate worker
  threads, so the flow's rate cap is the *minimum* of the stage caps
  (not their serial sum, which is GridFTP's fate);
* **zero-copy** — payload bytes cross DMA/link resources only; the CPU
  pays just the per-byte user-space protocol work plus a fixed per-block
  descriptor/credit cost (Fig. 4's 56% user CPU at 39 Gbps);
* **credit-based flow control** — at most ``credits`` blocks per stream
  are outstanding, capping each stream at ``credits x block / RTT`` —
  binding on the 95 ms WAN path (Fig. 13), irrelevant on the LAN;
* **control-message overhead** — each block costs a descriptor/credit
  round trip of ``rftp_ctrl_bytes_per_block`` on the wire, so payload
  efficiency rises with block size (Fig. 13's x-axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Union

from repro.faults.injector import faults_active
from repro.faults.recovery import DEFAULT_RECOVERY
from repro.fs.vfs import FileSystem
from repro.hw.nic import Nic
from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.kernel.numa import NumaPolicy
from repro.kernel.process import SimProcess, SimThread
from repro.kernel.work import PathSpec, WorkItem, build_thread_path, merge_paths
from repro.rdma.cm import ConnectionManager
from repro.rdma.fabric import rdma_fluid_path
from repro.rdma.verbs import Opcode, QueuePair
from repro.sim.context import Context
from repro.sim.fluid import FluidFlow
from repro.sim.trace import ThroughputProbe, TimeSeries
from repro.util.units import MIB, to_gbps
from repro.util.validation import check_positive

__all__ = ["RftpConfig", "RftpResult", "RftpTransfer"]

Source = Union[FileSystem, List[FileSystem], Literal["zero"]]
Sink = Union[FileSystem, List[FileSystem], Literal["null"]]


def _fs_for(spec, index: int):
    """Pick the filesystem serving stream *index* (striped round-robin)."""
    if isinstance(spec, list):
        if not spec:
            raise ValueError("empty filesystem list")
        return spec[index % len(spec)]
    return spec


@dataclass(frozen=True)
class RftpConfig:
    """Tunables of one RFTP invocation."""

    block_size: int = 4 * MIB
    streams_per_link: int = 1
    io_threads_per_link: int = 2  # load/offload workers feeding each link
    credits: Optional[int] = None  # default: calibration constant
    numa_tuned: bool = True  # numactl binding per NIC-local node

    def __post_init__(self):
        check_positive("block_size", self.block_size)
        check_positive("streams_per_link", self.streams_per_link)
        check_positive("io_threads_per_link", self.io_threads_per_link)


@dataclass
class RftpResult:
    """Outcome of a sustained run."""

    total_bytes: float
    duration: float
    n_streams: int
    sender_accounting: CpuAccounting
    receiver_accounting: CpuAccounting
    series: Optional[TimeSeries] = None
    per_link_bytes: Dict[str, float] = field(default_factory=dict)
    # -- fault-recovery counters (all zero on fault-free runs) --
    retransmitted_bytes: float = 0.0
    reconnects: int = 0
    streams_failed: int = 0
    recovery_seconds: float = 0.0

    @property
    def goodput(self) -> float:
        """Mean payload rate over the run (bytes/s)."""
        return self.total_bytes / self.duration

    @property
    def goodput_gbps(self) -> float:
        """Mean payload rate in gigabits/second."""
        return to_gbps(self.goodput)

    def cpu_percent(self, side: str = "sender") -> Dict[str, float]:
        """CPU utilization in percent-of-one-core, by category."""
        acc = self.sender_accounting if side == "sender" else self.receiver_accounting
        return {
            k: 100.0 * v / self.duration
            for k, v in acc.seconds_by_category().items()
        }


class _LinkRail:
    """Per-link runtime state: one rail of the multi-NIC transfer."""

    __slots__ = ("li", "sn", "rn", "qp_s", "load_t", "sproto_t", "rproto_t",
                 "offload_t", "nst", "flows", "caps", "generation", "alive",
                 "gave_up", "supervising")

    def __init__(self, li, sn, rn, qp_s, load_t, sproto_t, rproto_t,
                 offload_t, nst):
        self.li = li
        self.sn = sn
        self.rn = rn
        self.qp_s = qp_s
        self.load_t = load_t
        self.sproto_t = sproto_t
        self.rproto_t = rproto_t
        self.offload_t = offload_t
        self.nst = nst
        self.flows: List[FluidFlow] = []  # current generation only
        self.caps: Dict[FluidFlow, tuple] = {}  # flow -> (stage_cap, credit_cap)
        self.generation = 0
        self.alive = True
        self.gave_up = False
        self.supervising = False


def _roce_nics(machine: Machine) -> List[Nic]:
    return [
        s.device
        for s in machine.pcie_slots
        if s.device is not None and s.device.kind.is_roce
        and s.device.link is not None
    ]


class RftpTransfer:
    """One direction of an RFTP run between two cabled hosts."""

    def __init__(
        self,
        ctx: Context,
        sender: Machine,
        receiver: Machine,
        *,
        source: Source = "zero",
        sink: Sink = "null",
        config: RftpConfig = RftpConfig(),
        name: str = "rftp",
    ):
        self.ctx = ctx
        self.sender = sender
        self.receiver = receiver
        self.source = source
        self.sink = sink
        self.config = config
        self.name = name
        self.flows: List[FluidFlow] = []
        self._qps: List[QueuePair] = []
        self._send_threads: List[SimThread] = []
        self._recv_threads: List[SimThread] = []
        self._started = False
        self._stopped = False
        # -- fault-recovery state (inert unless an injector is active) --
        self._rails: List[_LinkRail] = []
        self._rail_by_link: Dict[object, _LinkRail] = {}
        self._fault_mode = False
        self._credits = 0
        self._size: Optional[float] = None
        self._lost_bytes = 0.0
        self.retransmitted_bytes = 0.0
        self.reconnects = 0
        self.streams_failed = 0
        self.recovery_seconds = 0.0
        self.ready = ctx.sim.event(name=f"{name}/ready")
        self.s_nics = _roce_nics(sender)
        self.r_nics = [n.link.peer(n) for n in self.s_nics]
        if not self.s_nics:
            raise ValueError(f"{sender.name!r} has no cabled RoCE NICs")

    # -- stage builders ------------------------------------------------------------
    def _stage_threads(self, machine: Machine, nic: Nic, role: str) -> SimProcess:
        if self.config.numa_tuned:
            policy = NumaPolicy.bind(nic.node)
        else:
            policy = NumaPolicy.default()
        proc = SimProcess(
            machine, f"{self.name}-{role}-{nic.name}", cpu_policy=policy,
            mem_policy=policy,
        )
        return proc

    def _load_spec(self, thread: SimThread, n_streams_total: int,
                   stream_index: int = 0) -> PathSpec:
        cal = self.ctx.cal
        bs = self.config.block_size
        if isinstance(self.source, str):
            item = WorkItem(
                "load /dev/zero",
                cpu_per_byte=1.0 / cal.dev_zero_fill_rate,
                category="load",
                mem_traffic=(WorkItem.mem(thread.execution_fractions(), 1.0),),
            )
            spec = build_thread_path(thread, [item], op_size=bs)
        else:
            fs = _fs_for(self.source, stream_index)
            # RFTP always does O_DIRECT file I/O: no page-cache copy.
            spec = fs.streaming_spec(
                False, thread, bs, direct=True,
                n_streams=n_streams_total,
            )
        # the stage is served by a small worker team
        if spec.cap is not None:
            spec.cap *= self.config.io_threads_per_link
        return spec

    def _offload_spec(self, thread: SimThread, n_streams_total: int,
                      stream_index: int = 0) -> PathSpec:
        bs = self.config.block_size
        if isinstance(self.sink, str):
            item = WorkItem(
                "offload /dev/null",
                cpu_per_byte=1.0 / 400e9,  # write(2) to /dev/null: ~free
                category="offload",
            )
            spec = build_thread_path(thread, [item], op_size=bs)
        else:
            fs = _fs_for(self.sink, stream_index)
            spec = fs.streaming_spec(
                True, thread, bs, direct=True,
                n_streams=n_streams_total,
            )
        if spec.cap is not None:
            spec.cap *= self.config.io_threads_per_link
        return spec

    def _proto_spec(self, thread: SimThread) -> PathSpec:
        cal = self.ctx.cal
        item = WorkItem(
            "rftp protocol",
            cpu_per_byte=1.0 / cal.rdma_proto_rate,
            category="usr_proto",
            per_op_cpu=cal.rftp_per_block_cpu,
        )
        return build_thread_path(thread, [item], op_size=self.config.block_size)

    # -- lifecycle -------------------------------------------------------------------
    def start(self, size: Optional[float] = None) -> List[FluidFlow]:
        """Connect QPs and start the per-stream flows.

        ``size`` is total bytes (split evenly over streams); None runs
        until :meth:`stop`/:meth:`run`.
        """
        if self._started:
            raise RuntimeError(f"{self.name!r} already started")
        self._started = True
        cal = self.ctx.cal
        cfg = self.config
        credits = cfg.credits if cfg.credits is not None else cal.rftp_credits_per_stream
        self._credits = credits
        self._size = size
        n_streams_total = len(self.s_nics) * cfg.streams_per_link
        cm = ConnectionManager(self.ctx)

        # Recovery only engages for open-ended runs under an active
        # injector; otherwise every code path below is the classic one.
        inj = faults_active(self.ctx)
        self._fault_mode = inj is not None and size is None

        handshakes = []
        for li, (sn, rn) in enumerate(zip(self.s_nics, self.r_nics)):
            qp_s, qp_r, hs = cm.connect_pair(sn, rn, name=f"{self.name}-l{li}")
            handshakes.append(hs)
            self._qps += [qp_s, qp_r]

            sproc = self._stage_threads(self.sender, sn, "snd")
            rproc = self._stage_threads(self.receiver, rn, "rcv")
            load_t = sproc.spawn_thread(f"{self.name}-load{li}")
            sproto_t = sproc.spawn_thread(f"{self.name}-sproto{li}")
            rproto_t = rproc.spawn_thread(f"{self.name}-rproto{li}")
            offload_t = rproc.spawn_thread(f"{self.name}-offload{li}")
            self._send_threads += [load_t, sproto_t]
            self._recv_threads += [rproto_t, offload_t]
            rail = _LinkRail(li, sn, rn, qp_s, load_t, sproto_t, rproto_t,
                             offload_t, n_streams_total)
            self._rails.append(rail)
            self._rail_by_link[sn.link] = rail

        if self._fault_mode:
            inj.add_transfer(self.name, self)

        def launch():
            for hs in handshakes:
                yield hs
            for rail in self._rails:
                self._build_flows(rail)
            self.ready.succeed(tuple(self.flows))

        self.ctx.sim.process(launch(), name=f"{self.name}/launch")
        return self.flows

    def _build_flows(self, rail: _LinkRail) -> None:
        """Create and start rail's per-stream flows (initial or rebuilt).

        Deterministic pure-Python spec assembly: safe to call again on
        reconnect (generation > 0 names keep the per-link prefix).
        """
        cal = self.ctx.cal
        cfg = self.config
        bs = cfg.block_size
        credits = self._credits
        sn, rn = rail.sn, rail.rn
        # pipelined stages: min of caps, all resources on one path
        sproto = self._proto_spec(rail.sproto_t)
        rproto = self._proto_spec(rail.rproto_t)

        if cfg.numa_tuned:
            s_fracs = {sn.node: 1.0}
            r_fracs = {rn.node: 1.0}
        else:
            s_fracs = {n: 1.0 / self.sender.n_nodes
                       for n in range(self.sender.n_nodes)}
            r_fracs = {n: 1.0 / self.receiver.n_nodes
                       for n in range(self.receiver.n_nodes)}
        wire = rdma_fluid_path(rail.qp_s, Opcode.RDMA_WRITE, s_fracs, r_fracs)
        # per-block control messages share the wire with the payload
        ctrl_overhead = cal.rftp_ctrl_bytes_per_block / bs
        wire = [(r, w * (1.0 + ctrl_overhead)) for r, w in wire]

        link_rtt = sn.link.rtt + 2 * cal.rdma_op_latency
        rail.flows = []
        rail.caps = {}
        gen = f"r{rail.generation}" if rail.generation else ""
        new_flows: List[FluidFlow] = []
        for s in range(cfg.streams_per_link):
            stream_index = rail.li * cfg.streams_per_link + s
            load = self._load_spec(rail.load_t, rail.nst, stream_index)
            offload = self._offload_spec(rail.offload_t, rail.nst, stream_index)
            spec = merge_paths(load, sproto, rproto, offload)
            spec.path.extend(wire)
            # per-stream share of the pipelined stage caps
            if spec.cap is not None and cfg.streams_per_link > 1:
                spec.cap /= cfg.streams_per_link
            stage_cap = spec.cap
            credit_cap = credits * bs / link_rtt
            spec.with_cap(credit_cap)
            flow = FluidFlow(
                spec.path,
                size=None if self._size is None else self._size / rail.nst,
                cap=spec.cap,
                charges=spec.charges,
                name=f"{self.name}-l{rail.li}s{s}{gen}",
            )
            new_flows.append(flow)
            self.flows.append(flow)
            rail.flows.append(flow)
            if self._fault_mode:
                rail.caps[flow] = (stage_cap, credit_cap)
        # One settle covers the whole rail's streams (a per-flow loop
        # when the scheduler is eager — byte-identical either way).
        self.ctx.fluid.start_many(new_flows)

    # -- fault recovery ------------------------------------------------------------
    # The hooks below are only ever invoked by an active FaultInjector
    # (registered via add_transfer); on fault-free runs none of this
    # executes and the transfer behaves exactly as before.
    def _boost(self) -> float:
        """Credit multiplier: dead rails' windows reassigned to survivors."""
        alive = sum(1 for rail in self._rails if rail.alive)
        return len(self._rails) / alive if alive else 1.0

    def _apply_boost(self) -> None:
        boost = self._boost()
        fluid = self.ctx.fluid
        for rail in self._rails:
            if not rail.alive:
                continue
            for flow in rail.flows:
                if not flow._active:
                    continue
                stage_cap, credit_cap = rail.caps[flow]
                cap = credit_cap * boost
                if stage_cap is not None and stage_cap < cap:
                    cap = stage_cap
                fluid.set_cap(flow, cap)

    def _kill_streams(self, rail: _LinkRail) -> None:
        """Declare a rail's streams dead; account their in-flight windows.

        Blocks inside the credit window were unacknowledged when the
        rail died, so they are retransmitted after recovery: goodput is
        debited (``_lost_bytes``) and the retransmit counters charged.
        """
        inj = self.ctx.faults
        window = (DEFAULT_RECOVERY.window_loss_fraction
                  * self._credits * self.config.block_size)
        # Bulk halt: one settle freezes every stream's byte count; the
        # accounting loop below then only reads ``transferred``.
        active = [f for f in rail.flows if f._active]
        if active:
            self.ctx.fluid.finish_many(active)
        for flow in rail.flows:
            delivered = flow.transferred
            lost = window if window < delivered else delivered
            self._lost_bytes += lost
            self.retransmitted_bytes += lost
            self.streams_failed += 1
            inj.stats.count("retransmitted_bytes", lost)
            inj.stats.count("streams_failed")
        rail.alive = False

    def _account_loss(self, rail: _LinkRail, fraction: float) -> None:
        """A loss burst: *fraction* of each stream's window is resent."""
        inj = self.ctx.faults
        # close the open rate epoch so flow.transferred is current
        self.ctx.fluid.settle()
        window = fraction * self._credits * self.config.block_size
        for flow in rail.flows:
            lost = window if window < flow.transferred else flow.transferred
            self._lost_bytes += lost
            self.retransmitted_bytes += lost
            inj.stats.count("retransmitted_bytes", lost)

    def _reconnect(self, rail: _LinkRail, t_down: float):
        """Pay the CM handshake, rebuild the rail, release the boost."""
        inj = self.ctx.faults
        link = rail.sn.link
        yield self.ctx.sim.timeout(3 * link.delay + inj.handshake_delay(link))
        if self._stopped or link.failed:
            return False
        rail.generation += 1
        rail.alive = True
        rail.gave_up = False
        self._build_flows(rail)
        self._apply_boost()
        dt = self.ctx.sim.now - t_down
        self.reconnects += 1
        self.recovery_seconds += dt
        inj.stats.count("reconnects", 1, "recovery_seconds", dt)
        self.ctx.trace.emit("fault", "reconnected", link=link.name,
                            transfer=self.name, recovery_seconds=dt)
        return True

    def _supervise(self, rail: _LinkRail, permanent: bool,
                   qp_error: bool = False):
        """Detect a dead rail, reclaim its credits, and try to reconnect."""
        rec = DEFAULT_RECOVERY
        inj = self.ctx.faults
        sim = self.ctx.sim
        link = rail.sn.link
        t_down = sim.now
        if not qp_error:
            if rec.detect_timeout > 0.0:
                yield sim.timeout(rec.detect_timeout)
            if self._stopped or not rail.alive:
                rail.supervising = False
                return
            if not link.failed:
                # a blip shorter than the block-ack timeout: just a stall
                rail.supervising = False
                return
        self._kill_streams(rail)
        self._apply_boost()
        attempt = 0
        while not self._stopped:
            if permanent or attempt >= rec.retransmit_budget:
                rail.gave_up = True
                inj.stats.count("giveups")
                break
            yield sim.timeout(rec.backoff(attempt))
            attempt += 1
            if self._stopped:
                break
            if not link.failed:
                ok = yield from self._reconnect(rail, t_down)
                if ok:
                    break
        rail.supervising = False

    def on_link_down(self, link, permanent: bool) -> None:
        """Injector hook: a rail's link went dark."""
        rail = self._rail_by_link.get(link)
        if (rail is None or not rail.alive or rail.supervising
                or self._stopped):
            return
        rail.supervising = True
        self.ctx.sim.process(
            self._supervise(rail, permanent),
            name=f"{self.name}/recover-l{rail.li}",
        )

    def on_link_up(self, link) -> None:
        """Injector hook: a given-up rail's link came back — re-attach."""
        rail = self._rail_by_link.get(link)
        if (rail is None or rail.alive or not rail.gave_up
                or rail.supervising or self._stopped):
            return
        rail.supervising = True

        def reattach():
            yield self.ctx.sim.timeout(DEFAULT_RECOVERY.backoff_base)
            if not self._stopped and not link.failed and not rail.alive:
                yield from self._reconnect(rail, self.ctx.sim.now)
            rail.supervising = False

        self.ctx.sim.process(reattach(), name=f"{self.name}/reattach-l{rail.li}")

    def on_loss(self, link, fraction: float) -> None:
        """Injector hook: loss burst — part of the window is retransmitted."""
        rail = self._rail_by_link.get(link)
        if rail is None or not rail.alive or self._stopped:
            return
        self._account_loss(rail, fraction)

    def on_qp_error(self, link) -> None:
        """Injector hook: QP async error — tear down and reconnect now."""
        rail = self._rail_by_link.get(link)
        if (rail is None or not rail.alive or rail.supervising
                or self._stopped):
            return
        rail.supervising = True
        self.ctx.sim.process(
            self._supervise(rail, permanent=False, qp_error=True),
            name=f"{self.name}/qp-recover-l{rail.li}",
        )

    def on_crash(self, restart_delay: float) -> None:
        """Injector hook: process crash — all rails die, restart later."""
        if self._stopped:
            return

        def crash():
            t_down = self.ctx.sim.now
            for rail in self._rails:
                if rail.alive and not rail.supervising:
                    self._kill_streams(rail)
            yield self.ctx.sim.timeout(restart_delay)
            for rail in self._rails:
                if (self._stopped or rail.alive or rail.supervising
                        or rail.sn.link.failed):
                    continue
                yield from self._reconnect(rail, t_down)

        self.ctx.sim.process(crash(), name=f"{self.name}/crash")

    def transferred(self) -> float:
        """Total bytes moved so far across all streams.

        This bound method is the sampler counter for the run's
        throughput probe, so it is kept allocation-free: a plain loop
        over a cached local instead of a ``sum()`` generator (rebuilt
        ~23k times per full fig13 run under the per-tick sampler).
        """
        total = 0.0
        for f in self.flows:
            total += f.transferred
        lost = self._lost_bytes
        if lost:
            # retransmitted windows crossed the wire but are not goodput
            total -= lost
            if total < 0.0:
                total = 0.0
        return total

    def stop(self) -> float:
        """Stop the activity; returns/flushes what it accumulated."""
        self._stopped = True
        # Bulk halt: one settle for every still-active stream.
        active = [f for f in self.flows if f._active]
        if active:
            self.ctx.fluid.finish_many(active)
        total = 0.0
        for f in self.flows:
            total += f.transferred
        return total

    def _ledger(self, threads: List[SimThread], name: str) -> CpuAccounting:
        acc = CpuAccounting(name)
        for t in threads:
            acc.add_many(t.accounting.seconds_by_category())
        return acc

    def run(self, duration: float, sample_interval: float = 1.0) -> RftpResult:
        """Start (if needed), run for *duration*, and summarize."""
        if not self._started:
            self.start()
        probe = ThroughputProbe(
            self.ctx.sim,
            counter=self.transferred,
            interval=sample_interval,
            name=f"{self.name}/throughput",
        )
        t0 = self.ctx.sim.now
        self.ctx.sim.run(until=t0 + duration)
        self.ctx.fluid.settle()
        series = probe.stop()
        total = self.transferred()
        per_link: Dict[str, float] = {}
        for f in self.flows:
            key = f.name.rsplit("s", 1)[0]
            per_link[key] = per_link.get(key, 0.0) + f.transferred
        self.stop()
        return RftpResult(
            total_bytes=total,
            duration=duration,
            n_streams=len(self.flows),
            sender_accounting=self._ledger(self._send_threads, "rftp-snd"),
            receiver_accounting=self._ledger(self._recv_threads, "rftp-rcv"),
            series=series,
            per_link_bytes=per_link,
            retransmitted_bytes=self.retransmitted_bytes,
            reconnects=self.reconnects,
            streams_failed=self.streams_failed,
            recovery_seconds=self.recovery_seconds,
        )
