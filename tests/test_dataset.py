"""Tests for dataset synthesis and the file-size transfer-time model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rftp.dataset import (
    Dataset,
    effective_bandwidth,
    synth_dataset,
    transfer_time_estimate,
)
from repro.util.units import GB, KIB, MIB


def rng():
    return np.random.default_rng(7)


def equal(size, count):
    """A corpus of *count* files of *size* bytes."""
    return Dataset(runs=((size, count),), kind="equal")


def expand(ds):
    """Every file size of *ds*, one list element per file."""
    return [size for size, count in ds.runs for _ in range(count)]


def test_bulk_dataset_shape():
    ds = synth_dataset(rng(), 2 * GB, "bulk", bulk_file_size=256 << 20)
    assert ds.kind == "bulk"
    assert ds.n_files == pytest.approx(2 * GB / (256 << 20), abs=1)
    assert ds.total_bytes == pytest.approx(2 * GB, rel=0.01)
    assert len(ds.runs) == 1  # equal files


def test_small_dataset_shape():
    ds = synth_dataset(rng(), 64 * MIB, "small", small_file_size=256 * KIB)
    assert ds.n_files == 256
    assert ds.mean_size == pytest.approx(256 * KIB, rel=0.01)


def test_lognormal_dataset_heavy_tail():
    ds = synth_dataset(rng(), 2 * GB, "lognormal")
    assert ds.total_bytes == pytest.approx(2 * GB, rel=0.01)
    sizes = np.asarray(expand(ds))
    # most files are smaller than the mean (heavy tail)
    assert np.mean(sizes < sizes.mean()) > 0.6


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        synth_dataset(rng(), GB, "zipf")


def test_transfer_time_affine_model():
    t = transfer_time_estimate(equal(MIB, 10), bandwidth=1e9, per_file_overhead=0.01)
    assert t == pytest.approx(10 * MIB / 1e9 + 10 * 0.01)


def test_pipelining_amortizes_overhead():
    sizes = equal(64 * KIB, 1000)
    plain = transfer_time_estimate(sizes, 1e9, 1e-3, pipeline_depth=1)
    piped = transfer_time_estimate(sizes, 1e9, 1e-3, pipeline_depth=10)
    assert piped < plain
    # overhead term shrinks exactly 10x
    data = 1000 * 64 * KIB / 1e9
    assert (plain - data) / (piped - data) == pytest.approx(10.0)


def test_effective_bandwidth_limits():
    big = equal(GB, 1)
    tiny = equal(4096, GB // 4096)
    bw = 1e9
    assert effective_bandwidth(big, bw, 1e-3) == pytest.approx(bw, rel=0.01)
    assert effective_bandwidth(tiny, bw, 1e-3) < 0.01 * bw


def test_model_validation():
    with pytest.raises(ValueError):
        transfer_time_estimate(equal(1, 1), bandwidth=0, per_file_overhead=0)
    with pytest.raises(ValueError):
        transfer_time_estimate(equal(1, 1), bandwidth=1, per_file_overhead=-1)


@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=1e6, max_value=1e10),
    st.floats(min_value=0.0, max_value=0.1),
)
@settings(max_examples=60, deadline=None)
def test_goodput_never_exceeds_bandwidth(n_files, bw, ovh):
    sizes = equal(MIB, n_files)
    eff = effective_bandwidth(sizes, bw, ovh)
    assert eff <= bw * (1 + 1e-9)
    # and is monotone in per-file overhead
    assert eff >= effective_bandwidth(sizes, bw, ovh + 0.01)


def _listed_corpus(rng, total_bytes, kind):
    """The corpus as one size per file, drawn one lognormal at a time."""
    if kind == "bulk":
        n = max(1, round(total_bytes / (256 << 20)))
        return [total_bytes // n] * n
    if kind == "small":
        n = max(1, round(total_bytes / (256 << 10)))
        return [total_bytes // n] * n
    sizes, acc = [], 0
    while acc < total_bytes:
        s = int(rng.lognormal(mean=np.log(4 << 20), sigma=2.0))
        s = max(4096, min(s, total_bytes))
        sizes.append(s)
        acc += s
    sizes[-1] = max(4096, sizes[-1] - (acc - total_bytes))
    return sizes


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
@pytest.mark.parametrize("kind", ["bulk", "lognormal", "small"])
def test_counted_corpus_matches_listed_sizes(kind, seed):
    """Counted runs and block draws give every figure a per-file list
    gives, to the bit (the lognormal mixes span several draw blocks)."""
    total = 64 * GB
    ds = synth_dataset(np.random.default_rng(seed), total, kind)
    sizes = _listed_corpus(np.random.default_rng(seed), total, kind)
    assert expand(ds) == sizes
    assert ds.n_files == len(sizes)
    assert ds.total_bytes == sum(sizes)
    assert ds.mean_size == sum(sizes) / len(sizes)
    for depth in (1, 8):
        t = sum(sizes) / 3e9 + len(sizes) * 2e-4 / depth
        assert effective_bandwidth(ds, 3e9, 2e-4, depth) == sum(sizes) / t
