"""CPU-time ledgers in the style of getrusage(2) and perf(1).

The paper reports CPU cost as "percent of one fully-utilized core"
(Fig. 4 note), split into categories: user-space protocol processing,
kernel protocol processing, user<->kernel data copies, data loading,
data offloading, interrupt handling.  :class:`CpuAccounting` accumulates
core-seconds per category (fluid flows debit it via their ``charges``)
and :meth:`CpuAccounting.total` sums several ledgers into one.
:class:`repro.core.metrics.CpuBreakdown` turns a ledger into the paper's
percent-of-a-core view and its usr/sys split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = [
    "CpuAccount", "CpuAccounting", "CATEGORIES", "USR_CATEGORIES",
    "SYS_CATEGORIES",
]

#: Categories the paper reports as "usr" (getrusage's ``ru_utime``).
USR_CATEGORIES = (
    "usr_proto",  # user-space protocol processing (RFTP descriptors, iperf loop)
    "load",       # data loading (/dev/zero fill, file reads)
    "offload",    # data offloading (/dev/null dump, file writes)
)

#: Categories the paper reports as "sys" (getrusage's ``ru_stime``).
SYS_CATEGORIES = (
    "sys_proto",  # kernel TCP/IP stack processing
    "copy",       # user<->kernel / page-cache data copies
    "irq",        # interrupt/softirq handling
    "coherence",  # cache-coherence stalls (NUMA write invalidations)
    "io",         # block-I/O submission/completion handling
)

#: Canonical cost categories used across the figures.
CATEGORIES = USR_CATEGORIES + SYS_CATEGORIES


@dataclass
class CpuAccount:
    """A single category accumulator (satisfies the fluid ChargeAccount)."""

    name: str
    seconds: float = 0.0

    def add(self, amount: float) -> None:
        """Accumulate an amount."""
        if amount < 0:
            raise ValueError(f"negative charge on {self.name!r}: {amount}")
        self.seconds += amount


class CpuAccounting:
    """Per-entity (thread/process/host) CPU time ledger."""

    def __init__(self, name: str = ""):
        self.name = name
        self._accounts: Dict[str, CpuAccount] = {}

    @classmethod
    def total(cls, ledgers: Iterable["CpuAccounting"],
              name: str = "") -> "CpuAccounting":
        """A new ledger summing *ledgers* category by category, in order."""
        out = cls(name)
        for ledger in ledgers:
            for category, seconds in ledger.seconds_by_category().items():
                out.account(category).add(seconds)
        return out

    def account(self, category: str) -> CpuAccount:
        """The accumulator for *category* (created on first use)."""
        acct = self._accounts.get(category)
        if acct is None:
            acct = CpuAccount(category)
            self._accounts[category] = acct
        return acct

    def add(self, category: str, seconds: float) -> None:
        """Directly add CPU seconds to a category."""
        self.account(category).add(seconds)

    @property
    def total_seconds(self) -> float:
        """Sum of CPU seconds across categories."""
        return sum(a.seconds for a in self._accounts.values())

    def seconds_by_category(self) -> Dict[str, float]:
        """CPU seconds per accounting category."""
        return {k: a.seconds for k, a in self._accounts.items()}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}={v:.3f}s" for k, v in sorted(self.seconds_by_category().items())
        )
        return f"<CpuAccounting {self.name!r} {parts}>"
