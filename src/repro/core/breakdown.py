"""Cost and delay breakdowns (Figures 3, 4, 10, 12, 14).

Two views of where the work goes:

* :func:`fig4_categories` — maps the library's accounting categories to
  the paper's Fig. 4 buckets (data loading, user protocol, kernel
  protocol, copies, offloading, interrupts) in percent-of-one-core;
* :class:`BlockDelayBreakdown` — the Fig. 3 view: the latency of one
  data block decomposed into load / transmit / offload components given
  the stage rates along a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.metrics import CpuBreakdown
from repro.kernel.accounting import CpuAccounting
from repro.util.validation import check_positive

__all__ = ["fig4_categories", "BlockDelayBreakdown", "FIG4_LABELS"]

#: paper-facing labels for Fig. 4-style breakdowns.
FIG4_LABELS = {
    "load": "data loading",
    "usr_proto": "user protocol",
    "sys_proto": "kernel protocol",
    "copy": "data copy",
    "offload": "data offloading",
    "irq": "interrupts",
    "coherence": "coherence stalls",
    "io": "I/O bookkeeping",
}


def fig4_categories(acc: CpuAccounting, wall: float) -> Dict[str, float]:
    """One ledger's percent-of-one-core per Fig. 4 bucket over *wall* s.

    Pass the sum of every sender- and receiver-side thread
    (:meth:`CpuAccounting.total`) for the paper's "total CPU" convention.
    """
    pct = CpuBreakdown.from_accounting(acc, wall).by_category
    return {FIG4_LABELS.get(cat, cat): v for cat, v in pct.items()}


@dataclass(frozen=True)
class BlockDelayBreakdown:
    """Latency of one block through load -> transmit -> offload (Fig. 3).

    Two notions of "transmit time" matter and are kept apart:

    * ``transmit_seconds`` — what the block *experiences*: serialization
      plus propagation (and any per-block control overhead).  Governs
      per-block latency.
    * ``transmit_occupancy`` — how long the block *occupies* the wire:
      serialization only.  Propagation pipelines perfectly, so occupancy
      (not latency) decides throughput bottlenecks.
    """

    block_size: int
    load_seconds: float
    transmit_seconds: float
    offload_seconds: float
    transmit_occupancy: float

    @classmethod
    def from_rates(
        cls,
        block_size: int,
        load_rate: float,
        wire_rate: float,
        offload_rate: float,
        propagation: float = 0.0,
        per_block_overhead: float = 0.0,
    ) -> "BlockDelayBreakdown":
        """Build from per-stage sustained rates (bytes/s)."""
        check_positive("block_size", block_size)
        for name, rate in (
            ("load_rate", load_rate),
            ("wire_rate", wire_rate),
            ("offload_rate", offload_rate),
        ):
            check_positive(name, rate)
        occupancy = block_size / wire_rate + per_block_overhead
        return cls(
            block_size=block_size,
            load_seconds=block_size / load_rate,
            transmit_seconds=occupancy + propagation,
            offload_seconds=block_size / offload_rate,
            transmit_occupancy=occupancy,
        )

    @property
    def total_seconds(self) -> float:
        """Serial (unpipelined) per-block latency."""
        return self.load_seconds + self.transmit_seconds + self.offload_seconds

    @property
    def pipelined_seconds(self) -> float:
        """Per-block service time when stages overlap (the max occupancy)."""
        return max(self.load_seconds, self.transmit_occupancy,
                   self.offload_seconds)

    def bottleneck(self) -> str:
        """The stage limiting *throughput* (occupancy, not latency)."""
        stages = {
            "load": self.load_seconds,
            "transmit": self.transmit_occupancy,
            "offload": self.offload_seconds,
        }
        return max(stages, key=stages.get)

    def speedup_from_pipelining(self) -> float:
        """Serial latency over pipelined service time (RFTP's win)."""
        return self.total_seconds / self.pipelined_seconds
