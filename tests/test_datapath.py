"""Tests for the integrity digests and checksums."""

import numpy as np

from repro.datapath import StreamingDigest, checksum, verify_equal


# --- integrity ----------------------------------------------------------------------


def test_streaming_digest_matches_chunking():
    data = np.arange(10000, dtype=np.int64).astype(np.uint8)
    one = StreamingDigest().update(data).hexdigest()
    d = StreamingDigest()
    for i in range(0, len(data), 997):
        d.update(data[i : i + 997])
    assert d.hexdigest() == one
    assert d.total_bytes == len(data)


def test_streaming_digest_order_sensitive():
    a = np.array([1, 2, 3], dtype=np.uint8)
    b = np.array([3, 2, 1], dtype=np.uint8)
    assert (
        StreamingDigest().update(a).hexdigest()
        != StreamingDigest().update(b).hexdigest()
    )


def test_checksum_detects_corruption():
    data = np.random.default_rng(0).integers(0, 256, 4096).astype(np.uint8)
    c1 = checksum(data)
    data[100] ^= 0xFF
    assert checksum(data) != c1


def test_verify_equal():
    a = np.arange(100, dtype=np.uint8)
    assert verify_equal(a, a.copy())
    assert not verify_equal(a, a[:50])
    b = a.copy()
    b[0] ^= 1
    assert not verify_equal(a, b)
