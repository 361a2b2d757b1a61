"""The composed end-to-end system (the paper's Figure 5 testbed).

:class:`EndToEndSystem` assembles the full data path:

.. code-block:: text

    target-A  ==2x IB FDR==  host-A  ==3x RoCE QDR==  host-B  ==2x IB FDR==  target-B
    (tmpfs SAN)  (iSER)   (RFTP client)            (RFTP server)  (iSER)   (tmpfs SAN)

with six 50 GB logical units per SAN, XFS formatted from the initiators,
and every NUMA knob driven by one :class:`~repro.core.tuning.TuningPolicy`.
Methods run the paper's §4.3 workloads: unidirectional and bi-directional
RFTP and GridFTP transfers, plus the fio cross-check that establishes the
94.8 Gbps file-write ceiling.
"""

from __future__ import annotations

from typing import List, Literal, Optional

from repro.apps.fio import FioJob, run_fio
from repro.apps.gridftp import GridFtp
from repro.apps.rftp.transfer import RftpConfig, RftpTransfer
from repro.core.calibration import Calibration
from repro.core.metrics import CpuBreakdown, RunResult
from repro.core.tuning import TuningPolicy
from repro.fs.ext4 import Ext4FileSystem
from repro.fs.vfs import FileSystem
from repro.fs.xfs import XfsFileSystem
from repro.hw.presets import backend_lan_host, frontend_lan_host
from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.net.topology import wire_frontend_lan, wire_san
from repro.sim.context import Context
from repro.storage.initiator import IserInitiator
from repro.storage.target import IserTarget
from repro.util.units import GB, MIB
from repro.util.validation import check_positive

__all__ = ["EndToEndSystem"]

FsKind = Literal["xfs", "ext4", "raw"]


class EndToEndSystem:
    """Two front-end hosts, two back-end SANs, fully cabled and mounted."""

    def __init__(
        self,
        ctx: Context,
        tuning: TuningPolicy,
        *,
        n_luns: int = 6,
        lun_size: int = 50 * GB,
        fs_kind: FsKind = "xfs",
    ):
        check_positive("n_luns", n_luns)
        self.ctx = ctx
        self.tuning = tuning
        self.fs_kind: FsKind = fs_kind

        # hosts
        self.host_a = frontend_lan_host(ctx, "host-a", with_ib=True)
        self.host_b = frontend_lan_host(ctx, "host-b", with_ib=True)
        self.target_a = backend_lan_host(ctx, "target-a")
        self.target_b = backend_lan_host(ctx, "target-b")

        # wires
        self.frontend_links = wire_frontend_lan(self.host_a, self.host_b)
        self.san_a = wire_san(ctx, self.host_a, self.target_a)
        self.san_b = wire_san(ctx, self.host_b, self.target_b)

        # SANs
        self.tgt_a = IserTarget(ctx, self.target_a, tuning=tuning.target_tuning,
                                n_links=2, name="tgtd-a")
        self.tgt_b = IserTarget(ctx, self.target_b, tuning=tuning.target_tuning,
                                n_links=2, name="tgtd-b")
        for _ in range(n_luns):
            self.tgt_a.create_lun(lun_size)
            self.tgt_b.create_lun(lun_size)
        self.initiator_a = IserInitiator(ctx, self.host_a, self.tgt_a)
        self.initiator_b = IserInitiator(ctx, self.host_b, self.tgt_b)
        ctx.sim.run(until=ctx.sim.any_of(
            [self.initiator_a.login_all(), self.initiator_b.login_all()]
        ))
        ctx.sim.run(until=ctx.sim.now + 0.01)  # let both logins settle

        # filesystems over the exported block devices
        self.fs_a = self._make_filesystems(self.initiator_a)
        self.fs_b = self._make_filesystems(self.initiator_b)

    # -- construction helpers ----------------------------------------------------
    @classmethod
    def lan_testbed(
        cls,
        tuning: Optional[TuningPolicy] = None,
        *,
        seed: int = 0,
        cal: Optional[Calibration] = None,
        n_luns: int = 6,
        lun_size: int = 50 * GB,
        fs_kind: FsKind = "xfs",
    ) -> "EndToEndSystem":
        """Build the Figure 5 LAN testbed with a fresh simulation context."""
        ctx = Context.create(seed=seed, cal=cal)
        return cls(
            ctx,
            tuning if tuning is not None else TuningPolicy.numa_bound(),
            n_luns=n_luns,
            lun_size=lun_size,
            fs_kind=fs_kind,
        )

    def _make_filesystems(self, initiator: IserInitiator) -> List[FileSystem]:
        out: List[FileSystem] = []
        for lun_id in sorted(initiator.devices):
            dev = initiator.devices[lun_id]
            if self.fs_kind == "xfs":
                out.append(XfsFileSystem(self.ctx, dev))
            elif self.fs_kind == "ext4":
                out.append(Ext4FileSystem(self.ctx, dev))
            else:  # raw block device: a trivially thin XFS-less wrapper
                out.append(XfsFileSystem(self.ctx, dev, cache_bytes=1 << 20))
        return out

    # -- introspection -----------------------------------------------------------
    def solver_stats(self) -> dict:
        """Fluid-solver counters for this system's scheduler.

        Console-footer material (``python -m repro report``), never part
        of the EXPERIMENTS.md ledger: counters depend on event interleaving
        and on how flushes coalesce, not on the modeled physics.
        """
        return self.ctx.fluid.stats.as_dict()

    # -- workloads ---------------------------------------------------------------
    def fio_file_write_ceiling(self, block_size: int = 4 * MIB,
                               runtime: float = 30.0) -> float:
        """The paper's fio cross-check: the narrowest end-to-end stage.

        Returns the aggregate file-*write* bandwidth (bytes/s) into SAN B
        — 94.8 Gbps in the paper, the bound RFTP then reaches 96% of.
        """
        devices = [self.initiator_b.devices[i] for i in sorted(self.initiator_b.devices)]
        job = FioJob(rw="write", block_size=block_size, numjobs=4, runtime=runtime)
        result = run_fio(self.ctx, self.host_b, devices, job)
        return result.bandwidth

    def _rftp(self, sender: Machine, receiver: Machine,
              src_fs: List[FileSystem], dst_fs: List[FileSystem],
              config: Optional[RftpConfig], name: str) -> RftpTransfer:
        cfg = config if config is not None else RftpConfig(
            streams_per_link=2, numa_tuned=self.tuning.bind_apps
        )
        return RftpTransfer(
            self.ctx, sender, receiver,
            source=src_fs, sink=dst_fs, config=cfg, name=name,
        )

    def run_rftp_transfer(self, duration: float = 60.0,
                          config: Optional[RftpConfig] = None) -> RunResult:
        """Unidirectional RFTP: SAN A -> host A -> host B -> SAN B (Fig. 9)."""
        xfer = self._rftp(self.host_a, self.host_b, self.fs_a, self.fs_b,
                          config, "rftp-ab")
        res = xfer.run(duration)
        return RunResult(
            label=f"RFTP ({self.tuning.label})",
            total_bytes=res.total_bytes,
            duration=duration,
            sender_cpu=CpuBreakdown.from_accounting(res.sender_accounting, duration),
            receiver_cpu=CpuBreakdown.from_accounting(res.receiver_accounting, duration),
            series=res.series,
        )

    def run_rftp_bidirectional(self, duration: float = 60.0,
                               config: Optional[RftpConfig] = None) -> RunResult:
        """Simultaneous RFTP in both directions (Fig. 11)."""
        ab = self._rftp(self.host_a, self.host_b, self.fs_a, self.fs_b,
                        config, "rftp-ab")
        ba = self._rftp(self.host_b, self.host_a, self.fs_b, self.fs_a,
                        config, "rftp-ba")
        ab.start()
        ba.start()
        t0 = self.ctx.sim.now
        self.ctx.sim.run(until=t0 + duration)
        self.ctx.fluid.settle()
        total = ab.transferred() + ba.transferred()
        snd = ab._ledger(ab._send_threads + ba._send_threads, "snd")
        rcv = ab._ledger(ab._recv_threads + ba._recv_threads, "rcv")
        ab.stop()
        ba.stop()
        return RunResult(
            label=f"RFTP bidir ({self.tuning.label})",
            total_bytes=total,
            duration=duration,
            sender_cpu=CpuBreakdown.from_accounting(snd, duration),
            receiver_cpu=CpuBreakdown.from_accounting(rcv, duration),
        )

    def run_gridftp_transfer(self, duration: float = 60.0,
                             processes: Optional[int] = None) -> RunResult:
        """Unidirectional GridFTP baseline (Fig. 9)."""
        g = GridFtp(
            self.ctx, self.host_a, self.host_b,
            source_fs=self.fs_a, sink_fs=self.fs_b,
            processes=processes, numa_tuned=self.tuning.bind_apps,
            name="gridftp-ab",
        )
        res = g.run(duration)
        return RunResult(
            label=f"GridFTP ({self.tuning.label})",
            total_bytes=res.total_bytes,
            duration=duration,
            sender_cpu=CpuBreakdown.from_accounting(res.sender_accounting, duration),
            receiver_cpu=CpuBreakdown.from_accounting(res.receiver_accounting, duration),
            series=res.series,
        )

    def run_gridftp_bidirectional(self, duration: float = 60.0,
                                  processes: Optional[int] = None) -> RunResult:
        """Simultaneous GridFTP in both directions (Fig. 11)."""
        ab = GridFtp(self.ctx, self.host_a, self.host_b,
                     source_fs=self.fs_a, sink_fs=self.fs_b,
                     processes=processes, numa_tuned=self.tuning.bind_apps,
                     name="gridftp-ab")
        ba = GridFtp(self.ctx, self.host_b, self.host_a,
                     source_fs=self.fs_b, sink_fs=self.fs_a,
                     processes=processes, numa_tuned=self.tuning.bind_apps,
                     name="gridftp-ba")
        ab.start()
        ba.start()
        t0 = self.ctx.sim.now
        self.ctx.sim.run(until=t0 + duration)
        self.ctx.fluid.settle()
        total = ab.transferred() + ba.transferred()
        for g in (ab, ba):
            for f in g.flows:
                if f._active:
                    self.ctx.fluid.stop(f)

        snd_acc = CpuAccounting.total(
            (t.accounting for t in ab._send_threads + ba._send_threads), "snd")
        rcv_acc = CpuAccounting.total(
            (t.accounting for t in ab._recv_threads + ba._recv_threads), "rcv")
        return RunResult(
            label=f"GridFTP bidir ({self.tuning.label})",
            total_bytes=total,
            duration=duration,
            sender_cpu=CpuBreakdown.from_accounting(snd_acc, duration),
            receiver_cpu=CpuBreakdown.from_accounting(rcv_acc, duration),
        )
