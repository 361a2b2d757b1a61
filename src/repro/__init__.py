"""repro — NUMA-aware RDMA-based end-to-end data transfer systems.

A production-quality Python reproduction of Ren et al., "Design and
Performance Evaluation of NUMA-Aware RDMA-Based End-to-End Data Transfer
Systems" (SC'13).

The library rebuilds the paper's entire stack as a calibrated simulation:

* :mod:`repro.sim` — discrete-event + fluid-flow kernel,
* :mod:`repro.hw` — NUMA machine model (sockets, memory, PCIe, NICs),
* :mod:`repro.kernel` — OS model (scheduling, NUMA policy, accounting),
* :mod:`repro.net` — links, topologies, flow-level TCP (cubic),
* :mod:`repro.rdma` — verbs: memory regions, QPs, CQs, READ/WRITE/SEND,
* :mod:`repro.storage` — iSCSI/iSER SAN, tmpfs and SSD backends,
* :mod:`repro.fs` — VFS, page cache, XFS/ext4-like filesystems,
* :mod:`repro.apps` — RFTP, GridFTP, iperf, fio, STREAM,
* :mod:`repro.core` — end-to-end system builder, tuning, experiments,
* :mod:`repro.datapath` — integrity checks for the real-bytes paths.

Quickstart::

    from repro.core import EndToEndSystem, TuningPolicy
    system = EndToEndSystem.lan_testbed(tuning=TuningPolicy.numa_bound())
    result = system.run_rftp_transfer(duration=60.0)
    print(result.summary())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
