"""Applications: the measured programs of the paper's evaluation.

* :mod:`repro.apps.streambench` — STREAM Triad (memory-bandwidth anchor),
* :mod:`repro.apps.iperf` — TCP load generator (§2.3 motivating experiment),
* :mod:`repro.apps.fio` — flexible I/O tester (Figs. 7/8),
* :mod:`repro.apps.rftp` — the paper's RDMA file transfer protocol,
* :mod:`repro.apps.gridftp` — the GridFTP-style TCP baseline (Figs. 9-12).
"""

from repro.apps.fio import FioJob, FioResult, run_fio
from repro.apps.gridftp import GridFtp, GridFtpResult
from repro.apps.iperf import IperfResult, run_iperf
from repro.apps.streambench import StreamResult, run_stream_model

__all__ = [
    "run_stream_model",
    "StreamResult",
    "run_iperf",
    "IperfResult",
    "FioJob",
    "FioResult",
    "run_fio",
    "GridFtp",
    "GridFtpResult",
]
