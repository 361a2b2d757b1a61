"""Storage substrate: block devices, tmpfs, SSD, the iSCSI/iSER SAN.

The paper's back-end is a storage area network: a tgtd-style target
daemon exports tmpfs-backed logical units over iSER (iSCSI extensions
for RDMA) across two IB FDR links; open-iscsi on the front-end hosts
exposes them as block devices.  This package rebuilds each layer:

* :mod:`repro.storage.blockdev` — block device abstraction + RAM disk,
* :mod:`repro.storage.tmpfs` — NUMA-placed memory store (``mpol=`` mounts),
* :mod:`repro.storage.ssd` — flash with thermal throttling (§4.1 anecdote),
* :mod:`repro.storage.iscsi` — iSCSI login PDU framing,
* :mod:`repro.storage.iser` — the RDMA datamover semantics (command and
  response PDUs as latency, data as real RDMA operations),
* :mod:`repro.storage.target` — the multi-process target daemon + LUNs,
* :mod:`repro.storage.initiator` — open-iscsi-like initiator + sessions.
"""

from repro.storage.blockdev import BlockDevice, IoRequest, RamDisk
from repro.storage.daemon import QueuedCommand, TargetDaemon
from repro.storage.initiator import IserInitiator, IserSession, RemoteBlockDevice
from repro.storage.ssd import SsdDevice
from repro.storage.target import IserTarget, Lun
from repro.storage.tmpfs import TmpfsStore

__all__ = [
    "BlockDevice",
    "IoRequest",
    "RamDisk",
    "TmpfsStore",
    "SsdDevice",
    "IserTarget",
    "Lun",
    "IserInitiator",
    "IserSession",
    "RemoteBlockDevice",
    "TargetDaemon",
    "QueuedCommand",
]
