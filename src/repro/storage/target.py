"""The iSER target daemon and its logical units.

Models tgtd (the paper uses "SCSI target daemon version 1.0.31") with a
tmpfs backstore and the two scheduling regimes of §3.1:

* ``tuning="default"`` — one multi-threaded target process, threads
  migrate across nodes, tmpfs files allocated with the default policy
  (pages spread over both nodes), and writes invalidate remotely shared
  cache lines;
* ``tuning="numa"`` — one target process **per NUMA node**, each bound
  with numactl and serving only LUNs whose tmpfs files are pinned
  (``mpol``) to its node: all copies local, invalidations on-die.

Each LUN is assigned to an IB link round-robin, reproducing the paper's
"split and load-balanced all I/O requests between the two available
InfiniBand links".
"""

from __future__ import annotations

from typing import Dict, Literal, Optional

import numpy as np

from repro.hw.topology import Machine
from repro.kernel.accounting import CpuAccounting
from repro.kernel.numa import NumaPolicy, numactl
from repro.kernel.process import SimProcess, SimThread
from repro.kernel.work import PathSpec
from repro.rdma.mr import MemoryRegion, ProtectionDomain
from repro.sim.context import Context
from repro.storage.iser import target_io_spec
from repro.storage.tmpfs import TmpfsFile, TmpfsStore
from repro.util.validation import check_positive

__all__ = ["Lun", "IserTarget"]

Tuning = Literal["default", "numa"]


class Lun:
    """One exported logical unit, backed by a tmpfs file."""

    def __init__(self, target: "IserTarget", lun_id: int, file: TmpfsFile,
                 link_index: int, store_data: bool = False):
        self.target = target
        self.lun_id = lun_id
        self.file = file
        self.link_index = link_index
        self.data: Optional[np.ndarray] = (
            np.zeros(file.size_bytes, dtype=np.uint8) if store_data else None
        )
        self._mr: Optional[MemoryRegion] = None

    @property
    def capacity_bytes(self) -> int:
        """Capacity in bytes."""
        return self.file.size_bytes

    @property
    def node_fractions(self) -> Dict[int, float]:
        """Share of the region on each NUMA node."""
        return self.file.placement.node_fractions()

    @property
    def home_node(self) -> int:
        """The NUMA node holding (most of) the backing pages."""
        return self.file.placement.dominant_node()

    def memory_region(self) -> MemoryRegion:
        """The registered MR covering the backstore (lazy)."""
        if self._mr is None:
            self._mr = self.target.pd.register(
                self.file.placement, data=self.data, name=f"lun{self.lun_id}"
            )
        return self._mr

    def __repr__(self) -> str:
        return (
            f"<Lun {self.lun_id} {self.capacity_bytes >> 30} GiB "
            f"node={self.home_node} link={self.link_index}>"
        )


class IserTarget:
    """The target daemon: processes, worker threads and exported LUNs."""

    #: worker threads per target process (tgtd default-ish pool).
    WORKERS_PER_PROCESS = 8

    def __init__(
        self,
        ctx: Context,
        machine: Machine,
        *,
        tuning: Tuning = "default",
        n_links: int = 2,
        name: str = "tgtd",
    ):
        check_positive("n_links", n_links)
        self.ctx = ctx
        self.machine = machine
        self.tuning: Tuning = tuning
        self.n_links = n_links
        self.name = name
        self.pd = ProtectionDomain(machine, f"{name}/pd")
        from repro.rdma.cm import ConnectionManager

        ConnectionManager.register_pd(self.pd)

        self.luns: list[Lun] = []
        self._rr: Dict[int, int] = {}  # per-process worker round-robin

        if tuning == "numa":
            # one tmpfs mount per node, one bound process per node
            self.stores = [
                TmpfsStore(
                    machine,
                    int(machine.mem_bank(n).size_bytes * 0.9),
                    mpol=NumaPolicy.bind(n),
                    name=f"{name}/tmpfs{n}",
                )
                for n in range(machine.n_nodes)
            ]
            self.processes = []
            for n in range(machine.n_nodes):
                proc = SimProcess(machine, f"{name}.{n}")
                numactl(proc, cpunodebind=[n], membind=[n])
                self.processes.append(proc)
        else:
            self.stores = [
                TmpfsStore(
                    machine,
                    int(machine.total_memory_bytes * 0.9),
                    mpol=NumaPolicy.default(),
                    name=f"{name}/tmpfs",
                )
            ]
            self.processes = [SimProcess(machine, f"{name}.0")]

        for proc in self.processes:
            for _ in range(self.WORKERS_PER_PROCESS):
                proc.spawn_thread()

    # -- LUN management ---------------------------------------------------------
    def create_lun(self, size_bytes: int, store_data: bool = False) -> Lun:
        """Create and export a LUN; placement follows the tuning regime."""
        lun_id = len(self.luns)
        link_index = lun_id % self.n_links
        if self.tuning == "numa":
            # pin the LUN to the node local to its link's NIC:
            # link i attaches to the NIC on socket i (Fig. 2 layout).
            node = link_index % self.machine.n_nodes
            store = self.stores[node]
            file = store.create(f"lun{lun_id}", size_bytes)
        else:
            store = self.stores[0]
            file = store.create(f"lun{lun_id}", size_bytes, touch_node=None)
        lun = Lun(self, lun_id, file, link_index, store_data=store_data)
        self.luns.append(lun)
        return lun

    def process_for(self, lun: Lun) -> SimProcess:
        """The target process responsible for a LUN."""
        if self.tuning == "numa":
            return self.processes[lun.home_node]
        return self.processes[0]

    def worker_for(self, lun: Lun) -> SimThread:
        """Pick a worker thread (round-robin within the owning process)."""
        proc = self.process_for(lun)
        idx = self._rr.get(id(proc), 0)
        self._rr[id(proc)] = idx + 1
        return proc.threads[idx % len(proc.threads)]

    def remote_shared_fraction(self) -> float:
        """Fraction of backstore pages with remote cache-line sharers.

        Default scheduling lets every node's threads touch every LUN, so
        roughly ``default_remote_fraction`` of written lines have remote
        copies to invalidate; per-node binding keeps sharing on-die.
        """
        if self.tuning == "numa":
            return 0.0
        return self.ctx.cal.default_remote_fraction

    def io_spec(
        self,
        lun: Lun,
        is_write: bool,
        block_size: int,
        threads_per_lun: int = 1,
    ) -> PathSpec:
        """Target-side fluid spec for a stream against *lun*."""
        thread = self.worker_for(lun)
        return target_io_spec(
            self.ctx,
            thread,
            lun.node_fractions,
            is_write=is_write,
            block_size=block_size,
            remote_shared_fraction=self.remote_shared_fraction(),
            threads_per_lun=threads_per_lun,
        )

    def accounting(self) -> CpuAccounting:
        """Merged CPU ledger across all target processes/threads."""
        return CpuAccounting.total(
            [p.merged_accounting() for p in self.processes], self.name)

    def __repr__(self) -> str:
        return (
            f"<IserTarget {self.name!r} tuning={self.tuning} "
            f"luns={len(self.luns)} procs={len(self.processes)}>"
        )
