"""Recovery policy constants shared by the fault-tolerant protocol layer.

RFTP's recovery behaviour (modeled on refs [21-23]'s reliability layer
and the timeout/retransmission design of GBN-style RDMA protocols) is
fixed here, in one place, for the transfer engine and the connection
manager (documented in MODELING.md §9).
"""

from __future__ import annotations

__all__ = [
    "DETECT_TIMEOUT", "RETRANSMIT_BUDGET", "WINDOW_LOSS_FRACTION",
    "REQUEUE_EPSILON_BYTES", "backoff",
]

#: Seconds a link must stay dark before streams are declared failed
#: (block-ack timeout; outages shorter than this just stall).
DETECT_TIMEOUT = 0.2

#: Reconnect attempts before giving the link up for good (the
#: surviving-rail failover then becomes permanent).
RETRANSMIT_BUDGET = 8

#: Fraction of each failed stream's in-flight credit window that must
#: be retransmitted after recovery (1.0 = whole window lost).
WINDOW_LOSS_FRACTION = 1.0

#: Remaining-bytes floor below which a fault-requeued job counts as done
#: (float dust from rate * elapsed accounting, not real payload).  Shared
#: by the broker's dead-rail requeue path, whose victims are now halted
#: in one bulk ``finish_many`` settle.
REQUEUE_EPSILON_BYTES = 1.0


def backoff(attempt: int) -> float:
    """Delay before reconnect *attempt* (0-based): 0.1 s doubling, capped at 2 s."""
    return min(0.1 * 2.0 ** attempt, 2.0)
