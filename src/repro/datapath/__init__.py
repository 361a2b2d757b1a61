"""Real byte movement: end-to-end integrity checks.

The performance layer is a simulation, but correctness is not: small
transfers move *actual bytes*: RFTP file blocks by RDMA WRITE into the
receiver's registered buffer, and iSER data phases as RDMA operations
against registered memory.  This package provides the streaming digests
and checksums that verify those bytes end to end.
"""

from repro.datapath.integrity import StreamingDigest, checksum, verify_equal

__all__ = [
    "StreamingDigest",
    "checksum",
    "verify_equal",
]
