"""Run-level metrics: throughput summaries and CPU breakdowns.

These are the data structures the experiment modules return and the
benchmark harness renders — one :class:`RunResult` per measured
configuration, with the paper's reporting conventions (Gbps, percent of
one core, usr/sys split).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.kernel.accounting import SYS_CATEGORIES, USR_CATEGORIES, CpuAccounting
from repro.sim.trace import TimeSeries
from repro.util.units import to_gbps

__all__ = ["CpuBreakdown", "RunResult"]


@dataclass
class CpuBreakdown:
    """CPU utilization in percent-of-one-core, by category."""

    by_category: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_accounting(cls, acc: CpuAccounting, wall: float) -> "CpuBreakdown":
        """Build from a CPU ledger over a wall-clock window."""
        if wall <= 0:
            raise ValueError(f"wall time must be > 0, got {wall}")
        return cls(
            by_category={
                k: 100.0 * v / wall for k, v in acc.seconds_by_category().items()
            }
        )

    @property
    def total(self) -> float:
        """Sum over all categories."""
        return sum(self.by_category.values())

    @property
    def usr(self) -> float:
        """User-space share (protocol + load + offload)."""
        return sum(v for k, v in self.by_category.items() if k in USR_CATEGORIES)

    @property
    def sys(self) -> float:
        """Kernel-side share (stack + copies + interrupts + I/O)."""
        return sum(v for k, v in self.by_category.items() if k in SYS_CATEGORIES)

    def get(self, category: str) -> float:
        """Percent of one core spent in *category* (0 if none)."""
        return self.by_category.get(category, 0.0)

    def __str__(self) -> str:
        parts = ", ".join(
            f"{k}={v:.0f}%" for k, v in sorted(self.by_category.items()) if v >= 0.5
        )
        return f"total={self.total:.0f}% ({parts})"


@dataclass
class RunResult:
    """One measured configuration: throughput + CPU + timeline."""

    label: str
    total_bytes: float
    duration: float
    sender_cpu: Optional[CpuBreakdown] = None
    receiver_cpu: Optional[CpuBreakdown] = None
    series: Optional[TimeSeries] = None
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Mean payload rate over the run (bytes/s)."""
        return self.total_bytes / self.duration

    @property
    def goodput_gbps(self) -> float:
        """Mean payload rate in gigabits/second."""
        return to_gbps(self.goodput)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"{self.label}: {self.goodput_gbps:.1f} Gbps over {self.duration:.0f} s"
        ]
        if self.sender_cpu is not None:
            lines.append(f"  sender CPU:   {self.sender_cpu}")
        if self.receiver_cpu is not None:
            lines.append(f"  receiver CPU: {self.receiver_cpu}")
        for k, v in self.extras.items():
            lines.append(f"  {k}: {v:.3g}")
        return "\n".join(lines)
