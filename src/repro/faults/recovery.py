"""Recovery policy constants shared by the fault-tolerant protocol layer.

RFTP's recovery behaviour (modeled on refs [21-23]'s reliability layer
and the timeout/retransmission design of GBN-style RDMA protocols) is
parameterised here so tests and experiments can tighten or relax it
without touching the transfer engine.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecoveryConfig", "DEFAULT_RECOVERY", "REQUEUE_EPSILON_BYTES"]

#: Remaining-bytes floor below which a fault-requeued job counts as done
#: (float dust from rate * elapsed accounting, not real payload).  Shared
#: by the broker's dead-rail requeue path, whose victims are now halted
#: in one bulk ``finish_many`` settle.
REQUEUE_EPSILON_BYTES = 1.0


@dataclass(frozen=True)
class RecoveryConfig:
    """Timeout/backoff policy for RFTP fault recovery."""

    #: Seconds a link must stay dark before streams are declared failed
    #: (block-ack timeout; outages shorter than this just stall).
    detect_timeout: float = 0.2
    #: First reconnect attempt delay; doubles per attempt up to the cap.
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    #: Reconnect attempts before giving the link up for good (the
    #: surviving-rail failover then becomes permanent).
    retransmit_budget: int = 8
    #: Fraction of each failed stream's in-flight credit window that
    #: must be retransmitted after recovery (1.0 = whole window lost).
    window_loss_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.detect_timeout < 0:
            raise ValueError("detect_timeout must be >= 0")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 < backoff_base <= backoff_cap")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.retransmit_budget < 1:
            raise ValueError("retransmit_budget must be >= 1")
        if not (0.0 <= self.window_loss_fraction <= 1.0):
            raise ValueError("window_loss_fraction must be in [0, 1]")

    def backoff(self, attempt: int) -> float:
        """Delay before reconnect *attempt* (0-based), capped."""
        return min(self.backoff_base * self.backoff_factor ** attempt,
                   self.backoff_cap)


#: The stack's default policy (documented in MODELING.md §9).
DEFAULT_RECOVERY = RecoveryConfig()
