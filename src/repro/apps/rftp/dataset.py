"""Dataset synthesis and transfer-time estimation for file-size mixes.

The paper's corpus is six 50 GB files — the friendliest possible shape
for a bulk mover.  Real science datasets are messier: climate output
mixes multi-GB history files with thousands of small diagnostics.  This
module generates such mixes and predicts RFTP's completion time over
them, exposing the classic *lots-of-small-files* penalty: every file
pays a fixed control cost (open/request round trips, digest finalize)
that large files amortize and small files do not.

A corpus is counted, not listed: it is ``(size, count)`` runs of
equal-size files, so a 300 GB corpus of 256 KiB files is one run, not
a million-element list.  The transfer-time model needs only the
corpus's exact integer byte and file totals.

Used by the E3 extension experiment and validated there against the
event-level transfer engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.util.validation import check_positive

__all__ = ["Dataset", "synth_dataset", "transfer_time_estimate",
           "effective_bandwidth"]

#: Lognormal sizes drawn per generator call (a 300 GB mix has ~10k files).
_DRAW_BLOCK = 1024


@dataclass(frozen=True)
class Dataset:
    """A synthetic corpus: ``(size in bytes, file count)`` runs."""

    runs: tuple[tuple[int, int], ...]
    kind: str

    @cached_property
    def total_bytes(self) -> int:
        """Total payload bytes."""
        return sum(size * count for size, count in self.runs)

    @cached_property
    def n_files(self) -> int:
        """Number of files in the corpus."""
        return sum(count for _size, count in self.runs)

    @property
    def mean_size(self) -> float:
        """Mean file size in bytes."""
        return self.total_bytes / max(1, self.n_files)


def synth_dataset(
    rng: np.random.Generator,
    total_bytes: int,
    kind: str = "bulk",
    *,
    bulk_file_size: int = 256 << 20,
    small_file_size: int = 256 << 10,
    lognormal_median: int = 4 << 20,
    lognormal_sigma: float = 2.0,
) -> Dataset:
    """Generate a corpus of roughly *total_bytes* with the given shape.

    * ``bulk`` — the paper's regime: equal large files;
    * ``small`` — the pathological regime: equal small files;
    * ``lognormal`` — a realistic mix (file sizes are famously
      lognormal); heavy tail carries most bytes, most *files* are small.

    The lognormal sizes are drawn from *rng* in blocks; the draws after
    the one that reaches *total_bytes* go unused.
    """
    check_positive("total_bytes", total_bytes)
    if kind in ("bulk", "small"):
        file_size = bulk_file_size if kind == "bulk" else small_file_size
        n = max(1, round(total_bytes / file_size))
        return Dataset(runs=((total_bytes // n, n),), kind=kind)
    if kind != "lognormal":
        raise ValueError(f"unknown dataset kind {kind!r}")
    sizes: list[int] = []
    acc = 0
    mu = np.log(lognormal_median)
    while acc < total_bytes:
        block = rng.lognormal(mean=mu, sigma=lognormal_sigma,
                              size=_DRAW_BLOCK).tolist()
        for draw in block:
            s = max(4096, min(int(draw), total_bytes))
            sizes.append(s)
            acc += s
            if acc >= total_bytes:
                break
    overshoot = acc - total_bytes
    sizes[-1] = max(4096, sizes[-1] - overshoot)
    return Dataset(runs=tuple((s, 1) for s in sizes), kind=kind)


def transfer_time_estimate(
    corpus: Dataset,
    bandwidth: float,
    per_file_overhead: float,
    pipeline_depth: int = 1,
) -> float:
    """Completion time of transferring *corpus* sequentially over one
    session.

    Each file costs ``size / bandwidth`` of data time plus a fixed
    ``per_file_overhead`` (request/complete round trips).  With
    ``pipeline_depth > 1`` (a client overlapping the control phase of
    the next file with the data phase of the current), the per-file
    overhead is amortized by that factor — RFTP's answer to small
    files, as in GridFTP's pipelining extension.
    """
    check_positive("bandwidth", bandwidth)
    if per_file_overhead < 0:
        raise ValueError("per_file_overhead must be >= 0")
    check_positive("pipeline_depth", pipeline_depth)
    data_time = corpus.total_bytes / bandwidth
    control_time = corpus.n_files * per_file_overhead / pipeline_depth
    return data_time + control_time


def effective_bandwidth(
    corpus: Dataset,
    bandwidth: float,
    per_file_overhead: float,
    pipeline_depth: int = 1,
) -> float:
    """Goodput over the whole corpus (bytes/s)."""
    t = transfer_time_estimate(corpus, bandwidth, per_file_overhead,
                               pipeline_depth)
    return corpus.total_bytes / t if t > 0 else 0.0
