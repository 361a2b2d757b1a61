"""The iSER initiator: sessions, login, and remote block devices.

Models open-iscsi + the iSER transport on the front-end hosts.  One
:class:`IserSession` runs per IB link (the paper load-balances six LUNs
over two links); each exported LUN appears as a
:class:`RemoteBlockDevice` that the filesystem and application layers
consume exactly like a local disk.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.hw.nic import Nic, NicKind
from repro.hw.topology import Machine
from repro.kernel.numa import NumaPolicy
from repro.kernel.pages import place_region
from repro.kernel.process import SimThread
from repro.kernel.work import PathSpec, merge_paths
from repro.rdma.cm import ConnectionManager
from repro.rdma.fabric import rdma_fluid_path
from repro.rdma.mr import ProtectionDomain
from repro.rdma.verbs import Opcode, QueuePair
from repro.sim.context import Context
from repro.sim.engine import Event
from repro.storage.blockdev import BlockDevice, IoRequest
from repro.storage.iscsi import LoginRequestPdu, LoginResponsePdu, BasicHeaderSegment
from repro.storage.iser import (
    IserDatamover,
    initiator_io_spec,
    io_round_trip_latency,
    target_io_spec,
)
from repro.storage.target import IserTarget, Lun

__all__ = ["IserSession", "IserInitiator", "RemoteBlockDevice"]


class IserSession:
    """One iSCSI/iSER session over one IB link."""

    def __init__(
        self,
        ctx: Context,
        initiator_machine: Machine,
        target: IserTarget,
        initiator_nic: Nic,
        target_nic: Nic,
        name: str = "",
    ):
        self.ctx = ctx
        self.initiator_machine = initiator_machine
        self.target = target
        self.initiator_nic = initiator_nic
        self.target_nic = target_nic
        self.name = name or f"session:{initiator_nic.name}"
        self.pd = ProtectionDomain(initiator_machine, f"{self.name}/pd")
        ConnectionManager.register_pd(self.pd)
        self.qp_i: Optional[QueuePair] = None
        self.qp_t: Optional[QueuePair] = None
        self.logged_in = False
        self._login_event: Optional[Event] = None

    @property
    def link(self):
        """The link this endpoint is cabled to."""
        return self.initiator_nic.link

    def login(self) -> Event:
        """Connect QPs and run the iSCSI login exchange; returns an event."""
        if self._login_event is not None:
            return self._login_event
        cm = ConnectionManager(self.ctx)
        qp_i, qp_t, handshake = cm.connect_pair(
            self.initiator_nic, self.target_nic, name=self.name
        )
        self.qp_i, self.qp_t = qp_i, qp_t
        done = self.ctx.sim.event(name=f"{self.name}/login")
        self._login_event = done

        def run():
            yield handshake
            # encode/decode the login PDUs (byte-exact framing)
            req = LoginRequestPdu(
                initiator_name=f"iqn.2013-11.repro:{self.initiator_machine.name}",
                target_name=f"iqn.2013-11.repro:{self.target.name}",
            )
            bhs_raw, text = req.encode()
            parsed = LoginRequestPdu.from_bhs(
                BasicHeaderSegment.decode(bhs_raw), text
            )
            assert parsed.target_name == req.target_name
            yield self.ctx.sim.timeout(self.link.rtt)  # login round trip
            resp = LoginResponsePdu(status_class=0)
            LoginResponsePdu.from_bhs(BasicHeaderSegment.decode(resp.encode()))
            self.logged_in = True
            done.succeed(self)

        self.ctx.sim.process(run(), name=f"{self.name}/login")
        return done

    # -- fluid streaming ---------------------------------------------------------
    def streaming_spec(
        self,
        lun: Lun,
        is_write: bool,
        thread: SimThread,
        block_size: int,
        app_fracs: Optional[Dict[int, float]] = None,
        queue_depth: int = 1,
        threads_per_lun: int = 1,
    ) -> PathSpec:
        """Full SAN path of a sequential stream against *lun*.

        Composes: initiator command work, the RDMA wire/DMA path, the
        target's copy/coherence work, and the queue-depth latency cap.
        """
        if not self.logged_in:
            raise RuntimeError(f"session {self.name!r} not logged in")
        assert self.qp_t is not None
        if app_fracs is None:
            app_fracs = place_region(
                block_size * max(1, queue_depth),
                thread.process.mem_policy,
                self.initiator_machine.n_nodes,
                touch_node=thread.home_node(),
            ).node_fractions()

        init_spec = initiator_io_spec(self.ctx, thread, block_size)

        worker = self.target.worker_for(lun)
        tgt_spec = target_io_spec(
            self.ctx,
            worker,
            lun.node_fractions,
            is_write=is_write,
            block_size=block_size,
            remote_shared_fraction=self.target.remote_shared_fraction(),
            threads_per_lun=threads_per_lun,
        )
        bounce_fracs = worker.execution_fractions()

        # data movement: write -> target RDMA READs from the app buffer;
        # read -> target RDMA WRITEs into the app buffer.  The QP we model
        # the bulk stream on is the *target* QP (it posts the data ops).
        opcode = Opcode.RDMA_READ if is_write else Opcode.RDMA_WRITE
        wire = rdma_fluid_path(self.qp_t, opcode, bounce_fracs, app_fracs)

        spec = merge_paths(init_spec, tgt_spec)
        spec.path.extend(wire)

        fixed = io_round_trip_latency(self.ctx, self.link, is_write)
        spec.with_cap(queue_depth * block_size / fixed)
        return spec

    # -- event-level I/O ----------------------------------------------------------
    def execute_io(self, lun: Lun, req: IoRequest, app_mr) -> Event:
        """Run one SCSI command through the datamover (real bytes); the
        returned process yields the SCSI status."""
        if not self.logged_in:
            raise RuntimeError(f"session {self.name!r} not logged in")
        dm = IserDatamover(self.ctx, self.qp_i, self.qp_t)
        return self.ctx.sim.process(
            dm.execute(lun, req.is_write, req.offset, req.length, app_mr),
            name=f"{self.name}/io",
        )


class RemoteBlockDevice(BlockDevice):
    """A LUN surfaced on the initiator as /dev/sdX."""

    def __init__(self, session: IserSession, lun: Lun):
        super().__init__(
            session.ctx,
            f"{session.initiator_machine.name}/sd{lun.lun_id}",
            lun.capacity_bytes,
        )
        self.session = session
        self.lun = lun
        # fio-style knobs carried through bulk_path
        self.queue_depth = 1
        self.threads_per_lun = 1

    def bulk_path(self, is_write: bool, thread: SimThread, block_size: int) -> PathSpec:
        """Fluid path of streaming sequential I/O on this device."""
        return self.session.streaming_spec(
            self.lun,
            is_write,
            thread,
            block_size,
            queue_depth=self.queue_depth,
            threads_per_lun=self.threads_per_lun,
        )

    def submit(self, req: IoRequest, thread: Optional[SimThread] = None) -> Event:
        """Execute one I/O; the returned event fires at completion."""
        self._check(req)
        self._count(req)
        # register (or reuse) an MR over the request's buffer
        machine = self.session.initiator_machine
        placement = place_region(
            req.length,
            thread.process.mem_policy if thread else NumaPolicy.default(),
            machine.n_nodes,
            touch_node=thread.home_node() if thread else None,
        )
        data = req.data if req.data is not None else None
        if data is not None and data.dtype != np.uint8:
            raise ValueError("I/O payload must be uint8")
        app_mr = self.session.pd.register(placement, data=data, name=f"{self.name}/buf")
        inner = self.session.execute_io(self.lun, req, app_mr)
        done = self.ctx.sim.event(name=f"{self.name}/io")

        def run():
            status = yield inner
            app_mr.deregister()
            if status != 0:
                done.fail(OSError(f"SCSI status {status:#x} on {self.name}"))
            else:
                done.succeed(req)

        self.ctx.sim.process(run(), name=f"{self.name}/io")
        return done


class IserInitiator:
    """open-iscsi on one front-end host: sessions per link, devices per LUN."""

    def __init__(self, ctx: Context, machine: Machine, target: IserTarget,
                 name: str = ""):
        self.ctx = ctx
        self.machine = machine
        self.target = target
        self.name = name or f"{machine.name}/open-iscsi"
        i_nics = [
            s.device
            for s in machine.pcie_slots
            if s.device is not None and s.device.kind is NicKind.IB_FDR
        ]
        t_nics = [
            s.device
            for s in target.machine.pcie_slots
            if s.device is not None and s.device.kind is NicKind.IB_FDR
        ]
        if len(i_nics) < target.n_links or len(t_nics) < target.n_links:
            raise ValueError(
                f"need {target.n_links} IB NICs on both hosts "
                f"(have {len(i_nics)}/{len(t_nics)})"
            )
        self.sessions = [
            IserSession(ctx, machine, target, i_nics[i], t_nics[i],
                        name=f"{self.name}/s{i}")
            for i in range(target.n_links)
        ]
        self.devices: Dict[int, RemoteBlockDevice] = {}

    def login_all(self) -> Event:
        """Log in every session and surface the LUNs as block devices."""
        events = [s.login() for s in self.sessions]
        done = self.ctx.sim.event(name=f"{self.name}/login-all")

        def run():
            for ev in events:
                yield ev
            for lun in self.target.luns:
                session = self.sessions[lun.link_index % len(self.sessions)]
                self.devices[lun.lun_id] = RemoteBlockDevice(session, lun)
            done.succeed(self)

        self.ctx.sim.process(run(), name=f"{self.name}/login-all")
        return done

    def device(self, lun_id: int) -> RemoteBlockDevice:
        """The block device exported for a logical unit."""
        dev = self.devices.get(lun_id)
        if dev is None:
            raise KeyError(f"LUN {lun_id} not logged in on {self.name!r}")
        return dev
