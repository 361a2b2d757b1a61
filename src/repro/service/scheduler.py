"""Placement policies: which rail a job runs on, and where its buffer lives.

A policy maps one admitted job to a ``(rail, buffer_node)`` pair:

* ``numa-aware`` — least-loaded live rail, buffer *bound* to the rail's
  own node (the per-job form of the paper's ``numactl`` tuning): the DMA
  read never crosses QPI and the stream runs at the rail's full rate.
* ``numa-blind`` — same least-loaded rail choice, but the buffer stays
  wherever first-touch put it (the drawn ``touch_node``): about half the
  jobs DMA across QPI, paying the interconnect crossing *and* the
  remote-access stream derate.
* ``fifo``      — round-robin rail cursor in cabling order, buffer at
  first-touch: the naive baseline that ignores both load and locality.

Ties break toward the lowest rail index, so placement is a pure
function of (policy, rail loads, job) and runs are deterministic.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.service.fleet import Rail

__all__ = ["POLICIES", "pick_rail"]

#: Every placement policy the broker accepts.
POLICIES = ("fifo", "numa-aware", "numa-blind")


def _least_loaded(rails: List[Rail]) -> Optional[Rail]:
    # One pass over the rails reading job counts directly; the first
    # minimum wins, and an idle rail is a minimum nothing can undercut.
    best: Optional[Rail] = None
    best_load = 0
    for r in rails:
        if r.alive:
            load = len(r.jobs)
            if not load:
                return r
            if best is None or load < best_load:
                best = r
                best_load = load
    return best


def pick_rail(rails: List[Rail], policy: str, touch_node: int,
              cursor: int) -> Tuple[Optional[Rail], int, int]:
    """Place one job: returns ``(rail, buffer_node, next_cursor)``.

    ``rail`` is None when no rail is alive (the broker requeues).
    ``cursor`` is the fifo policy's round-robin position; the other
    policies pass it through untouched.
    """
    if policy == "fifo":
        n = len(rails)
        for step in range(n):
            rail = rails[(cursor + step) % n]
            if rail.alive:
                return rail, touch_node, (cursor + step + 1) % n
        return None, touch_node, cursor
    if policy == "numa-blind":
        return _least_loaded(rails), touch_node, cursor
    if policy == "numa-aware":
        rail = _least_loaded(rails)
        # bind the buffer to the chosen rail's node (numactl per job)
        return rail, (rail.node if rail is not None else touch_node), cursor
    raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
