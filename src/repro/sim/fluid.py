"""Fluid max-min fair bandwidth sharing.

This module is the performance heart of the library.  Every
throughput-limited entity in the modelled system — a network link
direction, a PCIe slot, a NUMA memory bank, a QPI link, a kernel protocol
stage — is a :class:`FluidResource` with a capacity in bytes/second.  A
data stream is a :class:`FluidFlow` that traverses a set of resources,
charging ``weight`` bytes of capacity on each resource per payload byte
(a memory *copy* charges the memory system twice: one read + one write).

Rates are assigned by **progressive filling** (water-filling), the textbook
construction of the max-min fair allocation with per-flow rate caps:

1. grow all unfrozen flows' rates uniformly;
2. freeze a flow when it hits its cap, or when any resource it uses
   saturates;
3. repeat until all flows are frozen.

The scheduler integrates with the event engine: whenever the flow set (or
a capacity, or a cap) changes, rates are recomputed and the next flow
completion is rescheduled.  In between changes, transfer progress is exact
(piecewise-linear fluid), so the simulation cost is proportional to the
number of flow arrivals/departures — *not* to bytes moved — which is what
makes simulating minutes of 100 Gbps traffic tractable.

Flows may carry *charges*: ``(account, cost_per_byte)`` pairs debited as
bytes progress.  The kernel layer uses this to account CPU seconds per
byte of protocol processing, reproducing the paper's getrusage/perf
measurements (Fig. 4, 8, 10, 12, 14).

Flow state lives in flat numpy arrays (rate, cap, size, transferred,
indexed by a per-scheduler *slot*); each flow's resource incidence is
cached as index/weight arrays, assembled per affected component into a
CSR-like (entry-list) structure, and progressive filling runs as a
vectorized water-filling loop over boolean freeze masks.  ``settle`` is
one fused ``transferred += rate·dt`` update plus a sparse matrix-vector
product over the charge incidence, and next-completion selection is an
``argmin`` over ``remaining / rate``.  Components (and active sets)
smaller than :data:`_VECTOR_MIN_FLOWS` take a scalar loop over the same
slot arrays instead, where numpy's per-call overhead would dominate.

Only the connected components of the flow/resource sharing graph touched
by a change are recomputed, and flow transitions at one simulated
instant share one deferred rebalance (see :meth:`FluidScheduler.flush`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Protocol, Sequence

import numpy as np

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.sampling import hub_for

__all__ = [
    "FluidResource",
    "FluidFlow",
    "FluidScheduler",
    "FluidStats",
    "ChargeAccount",
    "GangFluidProgram",
    "GangRunResult",
]

_EPS = 1e-9

#: Components smaller than this run the scalar filling loop: per-call
#: numpy dispatch overhead (~µs) beats dict walks only once a component
#: has enough flows to amortize it.
_VECTOR_MIN_FLOWS = 16

#: Compact the charge-incidence pool once dead entries outnumber live ones
#: (and the pool is big enough for compaction to matter).
_CHARGE_COMPACT_MIN = 128


class FluidStats:
    """Allocator counters: how much work incremental rebalancing avoids.

    ``rebalances`` counts :meth:`FluidScheduler._rebalance` calls,
    ``allocations`` those that actually recomputed rates (a dirty set was
    pending), ``flows_recomputed`` the flows touched by progressive
    filling, and ``flows_skipped`` the active flows whose cached rates
    were provably unaffected and therefore reused.

    The class attributes with the same names aggregate across **all**
    schedulers ever created in this process (like
    :attr:`Simulator.events_processed_total`) so report footers can show
    allocator telemetry without a handle on every scheduler.
    """

    __slots__ = ("rebalances", "allocations", "flows_recomputed", "flows_skipped")

    #: Process-global totals across all schedulers (class-level).
    total_rebalances = 0
    total_allocations = 0
    total_flows_recomputed = 0
    total_flows_skipped = 0

    def __init__(self) -> None:
        self.rebalances = 0
        self.allocations = 0
        self.flows_recomputed = 0
        self.flows_skipped = 0

    @classmethod
    def process_totals(cls) -> dict[str, int]:
        """The process-global counters as a plain dict."""
        return {
            "rebalances": cls.total_rebalances,
            "allocations": cls.total_allocations,
            "flows_recomputed": cls.total_flows_recomputed,
            "flows_skipped": cls.total_flows_skipped,
        }

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for reports and JSON)."""
        return {
            "rebalances": self.rebalances,
            "allocations": self.allocations,
            "flows_recomputed": self.flows_recomputed,
            "flows_skipped": self.flows_skipped,
        }

    def __repr__(self) -> str:
        return (
            f"<FluidStats rebalances={self.rebalances} "
            f"allocations={self.allocations} "
            f"recomputed={self.flows_recomputed} skipped={self.flows_skipped}>"
        )


class ChargeAccount(Protocol):
    """Anything that can accumulate a per-byte charge (e.g. CPU seconds)."""

    def add(self, amount: float) -> None:  # pragma: no cover - protocol
        """Accumulate an amount."""
        ...


class FluidResource:
    """A capacity-limited resource shared by fluid flows.

    Capacity is in bytes/second of *weighted* flow throughput.  Capacity
    may change at runtime (e.g. SSD thermal throttling); the scheduler
    rebalances all flows when it does.
    """

    def __init__(self, scheduler: "FluidScheduler", capacity: float, name: str = ""):
        if capacity < 0 or math.isnan(capacity):
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.scheduler = scheduler
        self.name = name
        self._capacity = float(capacity)
        self._idx = len(scheduler._resources)
        self._visit = 0
        scheduler._resources.append(self)

    @property
    def capacity(self) -> float:
        """Current capacity (bytes/second)."""
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change capacity and rebalance active flows."""
        if capacity < 0 or math.isnan(capacity):
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if capacity == self._capacity:
            return
        scheduler = self.scheduler
        if not scheduler._users.get(self):
            # Idle resource: no active flow can see the change, so skip
            # the full settle + rebalance (SSD throttle ticks and link
            # renegotiations before any transfer starts hit this path).
            self._capacity = float(capacity)
            return
        scheduler.settle()
        self._capacity = float(capacity)
        scheduler._dirty[self] = None
        scheduler._after_change()

    @property
    def load(self) -> float:
        """Current weighted demand through this resource (bytes/s).

        Served from the scheduler's per-resource cache, refreshed on every
        rebalance — O(1) instead of a scan over all active flows.  A
        deferred (coalesced) rebalance is flushed first so mid-timestamp
        readers always observe settled loads.
        """
        scheduler = self.scheduler
        if scheduler._pending:
            scheduler.flush()
        return scheduler._load.get(self, 0.0)

    @property
    def utilization(self) -> float:
        """Load divided by capacity (0 if capacity is 0)."""
        return self.load / self._capacity if self._capacity > 0 else 0.0

    def __repr__(self) -> str:
        return f"<FluidResource {self.name!r} cap={self._capacity:.3g} B/s>"


class FluidFlow:
    """A stream of bytes traversing a set of resources.

    Parameters
    ----------
    path:
        ``(resource, weight)`` pairs.  Weight is capacity consumed per
        payload byte (e.g. 2.0 for a copy on a memory-bandwidth resource).
        Duplicated resources accumulate weight.
    size:
        Total payload bytes, or ``None`` for an open-ended flow that runs
        until :meth:`FluidScheduler.stop`.
    cap:
        Optional maximum rate (bytes/s) — models serial-thread limits,
        TCP windows and NIC line rates not shared with other flows.
    charges:
        ``(account, cost_per_byte)`` pairs debited as the flow progresses.
    """

    __slots__ = (
        "name",
        "size",
        "cap",
        "charges",
        "_weights",
        "_rate",
        "_transferred",
        "done",
        "_active",
        "started_at",
        "finished_at",
        # solver state: slot index + owning scheduler while active,
        # cached incidence row (resource ids / weights), charge-pool range
        "_slot",
        "_sched",
        "_res_ids",
        "_res_ws",
        "_c_start",
        "_c_n",
        # dirty-closure BFS visit stamp (see FluidScheduler._affected)
        "_visit",
    )

    def __init__(
        self,
        path: Iterable[tuple[FluidResource, float]],
        size: Optional[float],
        cap: Optional[float] = None,
        charges: Sequence[tuple[Any, float]] = (),
        name: str = "",
    ):
        weights: dict[FluidResource, float] = {}
        for res, w in path:
            if w <= 0 or math.isnan(w):
                raise ValueError(f"flow weight must be > 0, got {w}")
            weights[res] = weights.get(res, 0.0) + w
        if size is not None and (size <= 0 or math.isnan(size)):
            raise ValueError(f"flow size must be > 0 or None, got {size}")
        if cap is not None and (cap <= 0 or math.isnan(cap)):
            raise ValueError(f"flow cap must be > 0 or None, got {cap}")
        if cap is None and not any(
            math.isfinite(r.capacity) for r in weights
        ):
            raise ValueError(
                f"flow {name!r} is unbounded: no cap and no finite resource on path"
            )
        self.name = name
        self.size = None if size is None else float(size)
        self.cap = None if cap is None else float(cap)
        self.charges = tuple(charges)
        self._weights = weights
        self._rate = 0.0
        self._transferred = 0.0
        self.done: Optional[Event] = None
        self._active = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._slot = -1
        self._sched: Optional["FluidScheduler"] = None
        self._res_ids: Optional[np.ndarray] = None
        self._res_ws: Optional[np.ndarray] = None
        self._c_start = 0
        self._c_n = 0
        self._visit = 0

    @property
    def rate(self) -> float:
        """Current allocated rate (bytes/s).

        If the owning scheduler has a deferred (coalesced) rebalance
        pending, it is flushed first, so readers always see the settled
        allocation — exactly what an immediate rebalance would have produced.
        Internal hot loops that run strictly post-flush read ``_rate``.
        """
        sched = self._sched
        if sched is not None and sched._pending:
            sched.flush()
        return self._rate

    @rate.setter
    def rate(self, value: float) -> None:
        self._rate = value

    @property
    def transferred(self) -> float:
        """Bytes delivered so far (settled progress).

        While the flow is active the authoritative count lives in the
        scheduler's slot array; otherwise in the flow's own scalar.
        """
        if self._slot >= 0:
            return float(self._sched._f_transferred[self._slot])
        return self._transferred

    @transferred.setter
    def transferred(self, value: float) -> None:
        if self._slot >= 0:
            self._sched._f_transferred[self._slot] = value
        else:
            self._transferred = value

    @property
    def remaining(self) -> Optional[float]:
        """Bytes left, or None for open-ended flows."""
        if self.size is None:
            return None
        return max(0.0, self.size - self.transferred)

    def __repr__(self) -> str:
        return (
            f"<FluidFlow {self.name!r} rate={self._rate:.3g} "
            f"transferred={self.transferred:.3g}/{self.size}>"
        )


class FluidScheduler:
    """Allocates rates to active flows and schedules their completions.

    Flow transitions (start, finish, cap and capacity changes) settle
    progress and mark their components dirty immediately, but the
    rebalance itself is deferred to one flush per simulated instant (an
    engine advance hook; see :meth:`flush`) — same rates, same completion
    deadlines, a single allocation for an arbitrarily large
    same-timestamp burst.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._pending = False
        self._hooked = False
        self._resources: list[FluidResource] = []
        self._active: list[FluidFlow] = []
        self._last_settle = sim.now
        self._timer_generation = 0
        # Incremental-allocation state.  ``_users`` maps each resource to
        # its active flows (insertion-ordered for run-to-run determinism);
        # ``_dirty``/``_dirty_flows`` seed the next allocation's affected
        # set; ``_load`` caches each resource's allocated weighted demand.
        self._users: dict[FluidResource, dict[FluidFlow, None]] = {}
        self._dirty: dict[FluidResource, None] = {}
        self._dirty_flows: dict[FluidFlow, None] = {}
        self._load: dict[FluidResource, float] = {}
        self._visit_epoch = 0
        self.stats = FluidStats()
        # Telemetry: every settle() that advances the clock ends a rate
        # epoch, and the hub backfills declared sample channels then.
        self._hub = hub_for(sim)
        self._hub.attach_scheduler(self)
        # Slot arrays (doubled on demand).  ``_hw`` is the high-water
        # slot count: every vector op runs over ``[:_hw]`` and freed
        # slots stay inert because their rate is 0 and size is inf.
        n = 16
        self._f_rate = np.zeros(n)
        self._f_cap = np.full(n, np.inf)
        self._f_size = np.full(n, np.inf)
        self._f_transferred = np.zeros(n)
        self._slot_flow: List[Optional[FluidFlow]] = [None] * n
        self._free_slots: list[int] = list(range(n - 1, -1, -1))
        self._hw = 0
        # Charge incidence pool (CSR data: account row, flow-slot col,
        # cost-per-byte value).  Appended on start; a stopping flow's
        # entries are zeroed in place (dead), and the pool is rebuilt
        # from the live flows once dead entries dominate.
        self._c_slot = np.zeros(n, dtype=np.intp)
        self._c_acct = np.zeros(n, dtype=np.intp)
        self._c_cost = np.zeros(n)
        self._c_len = 0
        self._c_dead = 0
        self._accounts: list[Any] = []
        self._acct_index: dict[int, int] = {}
        # Resource incidence pool (CSR data: flow-slot row, global
        # resource col, weight value) covering every active flow.
        # Appended on start; a stopping flow's entries are tombstoned
        # (slot -1) and the pool is mask-compacted once a whole-graph
        # allocation needs it or dead entries dominate.
        self._e_res = np.zeros(n, dtype=np.intp)
        self._e_w = np.zeros(n)
        self._e_slot = np.zeros(n, dtype=np.intp)
        self._e_used = 0
        self._e_dead = 0
        # Scratch map global-resource-id -> component-local id.
        self._res_scratch = np.zeros(0, dtype=np.intp)
        # Scratch map flow-slot -> component-local id.
        self._flow_scratch = np.zeros(n, dtype=np.intp)
        # Scratch for the per-round residual/wsum division.
        self._div = np.empty(16)

    # -- public API ------------------------------------------------------------
    def _admit(self, flow: FluidFlow) -> Event:
        """Activate *flow* (post-settle bookkeeping shared by start paths)."""
        flow.done = Event(self.sim, name=f"flow:{flow.name}")
        flow._active = True
        flow._sched = self
        flow.started_at = self.sim.now
        self._active.append(flow)
        for r in flow._weights:
            self._users.setdefault(r, {})[flow] = None
            self._dirty[r] = None
        self._dirty_flows[flow] = None
        self._bind_slot(flow)
        return flow.done

    def _after_change(self) -> None:
        """Defer the rebalance to one flush per simulated instant."""
        self._pending = True
        if not self._hooked:
            self._hooked = True
            self.sim.add_advance_hook(self._flush_pending)

    def _flush_pending(self) -> None:
        # Engine advance hook: apply the coalesced rebalance before the
        # clock moves past the instant the transitions happened at.
        if self._pending:
            self._pending = False
            self._rebalance()

    def flush(self) -> None:
        """Settle progress and apply any deferred (coalesced) rebalance.

        Mid-timestamp readers of rates or loads call this so they observe
        exactly what an immediate rebalance would have produced.
        """
        self.settle()
        if self._pending:
            self._pending = False
            self._rebalance()

    def start(self, flow: FluidFlow) -> Event:
        """Activate *flow*; returns its completion event.

        Open-ended flows (``size=None``) complete only via :meth:`stop`.
        """
        if flow._active or flow.done is not None:
            raise SimulationError(f"flow {flow.name!r} already started")
        self.settle()
        done = self._admit(flow)
        self._after_change()
        return done

    def start_many(self, flows: Sequence[FluidFlow]) -> List[Event]:
        """Activate many flows; returns their completion events in order.

        Equivalent to ``[start(f) for f in flows]`` — the whole batch
        shares one settle and one deferred rebalance, so admitting N flows
        at one instant costs a single allocation.
        """
        self.settle()
        events: List[Event] = []
        for flow in flows:
            if flow._active or flow.done is not None:
                raise SimulationError(f"flow {flow.name!r} already started")
            events.append(self._admit(flow))
            self._after_change()
        return events

    def stop(self, flow: FluidFlow) -> float:
        """Deactivate an open-ended (or unfinished) flow.

        Returns bytes transferred.  The flow's ``done`` event succeeds
        with the transferred byte count.
        """
        if not flow._active:
            raise SimulationError(f"flow {flow.name!r} is not active")
        self.settle()
        self._deactivate(flow)
        self._after_change()
        return flow.transferred

    def finish_many(self, flows: Sequence[FluidFlow]) -> List[float]:
        """Deactivate many flows; returns their transferred bytes in order.

        Equivalent to ``[stop(f) for f in flows]`` — the batch shares one
        settle and one deferred rebalance (the bulk leg of rail failover
        and drain paths).
        """
        self.settle()
        moved: List[float] = []
        for flow in flows:
            if not flow._active:
                raise SimulationError(f"flow {flow.name!r} is not active")
            self._deactivate(flow)
            self._after_change()
            moved.append(flow.transferred)
        return moved

    def set_cap(self, flow: FluidFlow, cap: Optional[float]) -> None:
        """Change a flow's rate cap (e.g. a TCP window update)."""
        if cap is not None and (cap <= 0 or math.isnan(cap)):
            raise ValueError(f"flow cap must be > 0 or None, got {cap}")
        self.settle()
        flow.cap = cap
        if flow._active:
            self._f_cap[flow._slot] = np.inf if cap is None else cap
            for r in flow._weights:
                self._dirty[r] = None
            self._dirty_flows[flow] = None
            self._after_change()

    def settle(self) -> None:
        """Advance all active flows' progress to the current instant.

        A settle that advances the clock closes a *rate epoch*: every
        caller settles before mutating rates (start/stop/set_cap/
        set_capacity), so flow rates and resource loads were constant
        over ``(last_settle, now]``.  The sampler hub is notified here —
        with counters settled and the epoch's rates still in place — so
        backfill channels can materialize all sample points in the epoch
        analytically (:mod:`repro.sim.sampling`).
        """
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed <= 0:
            self._last_settle = now
            return
        if self._pending:
            # Defensive late flush.  The engine normally flushes deferred
            # rebalances before the clock advances, so this path is not
            # reached from run()/step(); if a caller advanced time some
            # other way, the deferred transitions happened at the epoch's
            # start — their rates govern the whole elapsed interval, so
            # apply the allocation first, then accrue at the fresh rates.
            self._pending = False
            self.stats.rebalances += 1
            FluidStats.total_rebalances += 1
            self._allocate()
            self._settle_array(elapsed)
            self._last_settle = now
            hub = self._hub
            if hub._channels:
                hub.on_epoch(now)
            self._schedule_next_completion()
            return
        self._settle_array(elapsed)
        self._last_settle = now
        hub = self._hub
        if hub._channels:
            hub.on_epoch(now)

    @property
    def active_flows(self) -> tuple[FluidFlow, ...]:
        """Snapshot of the currently active flows."""
        return tuple(self._active)

    # -- settle --------------------------------------------------------------
    def _settle_array(self, elapsed: float) -> None:
        hw = self._hw
        if not hw:
            return
        active = self._active
        if len(active) < _VECTOR_MIN_FLOWS:
            # Small active set: per-element numpy dispatch costs more than
            # it saves, so loop over the flows against the slot arrays
            # (same arithmetic, element by element).
            f_tr = self._f_transferred
            for flow in active:
                rate = flow._rate
                if rate <= 0:
                    continue
                delta = rate * elapsed
                size = flow.size
                slot = flow._slot
                if size is not None:
                    remaining = size - float(f_tr[slot])
                    if delta > remaining:
                        delta = remaining
                if delta <= 0:
                    continue
                f_tr[slot] += delta
                charges = flow.charges
                if charges:
                    for account, per_byte in charges:
                        account.add(delta * per_byte)
            return
        # Fused progress update: delta = clip(rate * dt, 0, remaining).
        # Freed slots ride along harmlessly (rate 0 -> delta 0).
        delta = self._f_rate[:hw] * elapsed
        np.minimum(delta, self._f_size[:hw] - self._f_transferred[:hw], out=delta)
        np.maximum(delta, 0.0, out=delta)
        self._f_transferred[:hw] += delta
        m = self._c_len
        if m:
            # Charge accounting as one sparse mat-vec: per-account totals
            # are the weighted sums of member-flow deltas.  Dead entries
            # have cost 0 and contribute nothing.
            contrib = delta[self._c_slot[:m]] * self._c_cost[:m]
            amounts = np.bincount(
                self._c_acct[:m], weights=contrib, minlength=len(self._accounts)
            )
            if amounts.any():
                accounts = self._accounts
                for i in np.nonzero(amounts)[0].tolist():
                    accounts[i].add(float(amounts[i]))

    # -- slot-array state management -------------------------------------------
    def _bind_slot(self, flow: FluidFlow) -> None:
        if not self._free_slots:
            self._grow_slots()
        slot = self._free_slots.pop()
        flow._slot = slot
        flow._sched = self
        self._slot_flow[slot] = flow
        if slot >= self._hw:
            self._hw = slot + 1
        self._f_rate[slot] = 0.0
        self._f_cap[slot] = np.inf if flow.cap is None else flow.cap
        self._f_size[slot] = np.inf if flow.size is None else flow.size
        self._f_transferred[slot] = flow._transferred
        ids = flow._res_ids
        if ids is None:
            n = len(flow._weights)
            ids = np.fromiter(
                (r._idx for r in flow._weights), dtype=np.intp, count=n
            )
            flow._res_ids = ids
            flow._res_ws = np.fromiter(
                flow._weights.values(), dtype=float, count=n
            )
        ne = ids.size
        start = self._e_used
        if start + ne > self._e_slot.size:
            self._grow_entries(start + ne)
        self._e_res[start: start + ne] = ids
        self._e_w[start: start + ne] = flow._res_ws
        self._e_slot[start: start + ne] = slot
        self._e_used = start + ne
        charges = [(a, c) for a, c in flow.charges if c != 0.0]
        if charges:
            start = self._c_len
            need = start + len(charges)
            if need > self._c_slot.size:
                self._grow_charges(need)
            acct_index = self._acct_index
            for k, (account, cost) in enumerate(charges):
                key = id(account)
                idx = acct_index.get(key)
                if idx is None:
                    idx = len(self._accounts)
                    acct_index[key] = idx
                    self._accounts.append(account)
                self._c_slot[start + k] = flow._slot
                self._c_acct[start + k] = idx
                self._c_cost[start + k] = cost
            self._c_len = need
            flow._c_start = start
            flow._c_n = len(charges)

    def _div_scratch(self, n: int) -> np.ndarray:
        """An inf-filled length-``n`` scratch view for masked divisions."""
        d = self._div
        if d.size < n:
            self._div = d = np.empty(max(n, 2 * d.size))
        view = d[:n]
        view.fill(np.inf)
        return view

    def _grow_slots(self) -> None:
        old = self._f_rate.size
        new = old * 2
        for name in ("_f_rate", "_f_cap", "_f_size", "_f_transferred"):
            arr = getattr(self, name)
            grown = np.empty(new)
            grown[:old] = arr
            setattr(self, name, grown)
        self._f_cap[old:] = np.inf
        self._f_size[old:] = np.inf
        self._f_rate[old:] = 0.0
        self._f_transferred[old:] = 0.0
        self._slot_flow.extend([None] * old)
        self._free_slots.extend(range(new - 1, old - 1, -1))
        fsc = np.zeros(new, dtype=np.intp)
        fsc[:old] = self._flow_scratch
        self._flow_scratch = fsc

    def _grow_entries(self, need: int) -> None:
        new = max(need, self._e_slot.size * 2)
        for name, dtype in (("_e_res", np.intp), ("_e_w", float),
                            ("_e_slot", np.intp)):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=dtype)
            grown[: arr.size] = arr
            setattr(self, name, grown)

    def _compact_entries(self) -> None:
        """Drop tombstoned incidence entries (churn-threshold rebuild)."""
        u = self._e_used
        alive = self._e_slot[:u] >= 0
        k = int(alive.sum())
        if k != u:
            self._e_res[:k] = self._e_res[:u][alive]
            self._e_w[:k] = self._e_w[:u][alive]
            self._e_slot[:k] = self._e_slot[:u][alive]
        self._e_used = k
        self._e_dead = 0

    def _grow_charges(self, need: int) -> None:
        new = max(need, self._c_slot.size * 2)
        for name, dtype in (("_c_slot", np.intp), ("_c_acct", np.intp),
                            ("_c_cost", float)):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=dtype)
            grown[: arr.size] = arr
            setattr(self, name, grown)

    def _release_slot(self, flow: FluidFlow) -> None:
        slot = flow._slot
        flow._transferred = float(self._f_transferred[slot])
        self._f_rate[slot] = 0.0
        self._f_cap[slot] = np.inf
        self._f_size[slot] = np.inf
        flow._slot = -1
        flow._sched = None
        self._slot_flow[slot] = None
        self._free_slots.append(slot)
        es = self._e_slot[: self._e_used]
        es[es == slot] = -1
        self._e_dead += flow._res_ids.size
        if self._e_dead * 2 > self._e_used:
            self._compact_entries()
        if flow._c_n:
            # Zero the costs in place: the entries become inert even if
            # the slot is reused before the next compaction.
            self._c_cost[flow._c_start: flow._c_start + flow._c_n] = 0.0
            self._c_dead += flow._c_n
            flow._c_n = 0
            if (self._c_len >= _CHARGE_COMPACT_MIN
                    and self._c_dead * 2 > self._c_len):
                self._compact_charges()

    def _compact_charges(self) -> None:
        """Rebuild the charge pool from live flows (churn-threshold rebuild)."""
        pos = 0
        c_slot, c_acct, c_cost = self._c_slot, self._c_acct, self._c_cost
        for flow in self._active:
            n = flow._c_n
            if not n:
                continue
            start = flow._c_start
            if start != pos:
                c_slot[pos: pos + n] = c_slot[start: start + n]
                c_acct[pos: pos + n] = c_acct[start: start + n]
                c_cost[pos: pos + n] = c_cost[start: start + n]
                flow._c_start = pos
            pos += n
        self._c_len = pos
        self._c_dead = 0

    # -- internals ------------------------------------------------------------
    def _deactivate(self, flow: FluidFlow) -> None:
        flow._active = False
        flow.finished_at = self.sim.now
        self._active.remove(flow)
        users = self._users
        for r in flow._weights:
            res_users = users.get(r)
            if res_users is not None:
                res_users.pop(flow, None)
                if not res_users:
                    del users[r]
            self._dirty[r] = None
        self._release_slot(flow)
        flow._rate = 0.0
        flow._sched = None
        if flow.done is not None and not flow.done.triggered:
            flow.done.succeed(flow._transferred)

    def _rebalance(self) -> None:
        """Recompute the max-min fair rates; reschedule next completion."""
        self.stats.rebalances += 1
        FluidStats.total_rebalances += 1
        self._allocate()
        self._schedule_next_completion()

    def _affected(self) -> tuple[list[FluidFlow], list[FluidResource]]:
        """Close the dirty seed over the flow/resource sharing graph.

        Max-min fairness decomposes over connected components of the
        bipartite flow-resource graph, so only the components containing a
        dirty resource (or dirty flow) can see their rates change; every
        other active flow keeps its cached rate.
        """
        users = self._users
        affected_flows: list[FluidFlow] = []
        affected_res: list[FluidResource] = []
        # Visit stamps instead of membership sets: one epoch counter per
        # closure, one attribute compare per membership test (the BFS runs
        # on every rebalance, so constant factors matter).
        epoch = self._visit_epoch + 1
        self._visit_epoch = epoch
        stack: list[FluidResource] = []
        for r in self._dirty:
            if r._visit != epoch:
                r._visit = epoch
                affected_res.append(r)
                stack.append(r)
        for f in self._dirty_flows:
            if f._active and f._visit != epoch:
                f._visit = epoch
                affected_flows.append(f)
                for r in f._weights:
                    if r._visit != epoch:
                        r._visit = epoch
                        affected_res.append(r)
                        stack.append(r)
        while stack:
            r = stack.pop()
            for f in users.get(r, ()):
                if f._visit == epoch:
                    continue
                f._visit = epoch
                affected_flows.append(f)
                for r2 in f._weights:
                    if r2._visit != epoch:
                        r2._visit = epoch
                        affected_res.append(r2)
                        stack.append(r2)
        return affected_flows, affected_res

    def _allocate(self) -> None:
        """Recompute max-min fair rates for the components touched by the
        dirty set (incremental progressive filling)."""
        if not self._dirty and not self._dirty_flows:
            return
        flows, touched_res = self._affected()
        self._dirty.clear()
        self._dirty_flows.clear()
        stats = self.stats
        stats.allocations += 1
        stats.flows_recomputed += len(flows)
        stats.flows_skipped += len(self._active) - len(flows)
        FluidStats.total_allocations += 1
        FluidStats.total_flows_recomputed += len(flows)
        FluidStats.total_flows_skipped += len(self._active) - len(flows)
        load = self._load
        if not flows:
            for r in touched_res:
                load[r] = 0.0
            return
        if len(flows) == 1:
            self._allocate_single(flows[0], touched_res)
        elif len(flows) >= _VECTOR_MIN_FLOWS:
            self._allocate_array(flows, touched_res)
        else:
            self._allocate_scalar(flows, touched_res)

    def _allocate_single(
        self, f: FluidFlow, touched_res: list[FluidResource]
    ) -> None:
        """One-flow component: the fair rate is just the bottleneck.

        Progressive filling with a single flow converges in one round to
        ``min(cap, min over path of capacity / weight)`` — computed here
        directly, with the same per-candidate flooring as the full loop.
        """
        delta = math.inf
        for r, w in f._weights.items():
            c = r._capacity
            if math.isfinite(c):
                d = c / w
                if d < delta:
                    delta = d if d > 0.0 else 0.0
        cap = f.cap
        if cap is not None and cap < delta:
            delta = cap
        if not math.isfinite(delta):
            raise SimulationError(f"unbounded flows in allocation: {[f.name]}")
        if delta < 0.0:
            delta = 0.0
        f.rate = delta
        self._f_rate[f._slot] = delta
        load = self._load
        weights = f._weights
        for r in touched_res:
            load[r] = weights[r] * delta if r in weights else 0.0

    def _allocate_scalar(
        self, flows: list[FluidFlow], touched_res: list[FluidResource]
    ) -> None:
        """Scalar progressive filling over one small affected component.

        The component is assembled once into parallel lists indexed by a
        local resource id (list indexing beats dict iteration in the
        filling rounds), and the per-round constants — saturation and
        cap-freeze thresholds — are precomputed instead of re-derived
        every round.

        Resources with a single user never arbitrate between flows: such a
        *private* resource is exactly a rate cap of ``capacity / weight``
        on its one flow, so it is folded into the flow's effective cap at
        assembly and drops out of the per-round scans entirely.  In the
        pipelined topologies this library models most path entries are
        private (a flow's own CPU, its DMA engine, its half of a link), so
        the filling rounds touch only the handful of genuinely shared
        resources.
        """
        nf = len(flows)
        users = self._users
        rate = dict.fromkeys(flows, 0.0)
        unfrozen = dict.fromkeys(flows)
        # Per-shared-resource residual capacity and weight-sum over
        # *unfrozen* users; the weight sums are maintained incrementally
        # as flows freeze instead of being recomputed every filling round.
        res_index: dict[FluidResource, int] = {}
        residual: list[float] = []
        wsum: list[float] = []
        ucount: list[int] = []  # unfrozen users (exact)
        res_users: list[list[FluidFlow]] = []
        sat_thresh: list[float] = []
        f_entries: dict[FluidFlow, list[tuple[int, float]]] = {}
        cap_eff: dict[FluidFlow, float] = {}
        cap_thresh: dict[FluidFlow, float] = {}
        capped: list[FluidFlow] = []
        for f in flows:
            bound = f.cap if f.cap is not None else math.inf
            ents = []
            for r, w in f._weights.items():
                if len(users[r]) == 1:
                    c = r._capacity
                    if c < math.inf:
                        b = c / w
                        if b < bound:
                            bound = b
                    continue
                i = res_index.get(r)
                if i is None:
                    i = len(residual)
                    res_index[r] = i
                    c = r._capacity
                    residual.append(c)
                    wsum.append(0.0)
                    ucount.append(0)
                    res_users.append([])
                    # An infinite-capacity resource can never saturate:
                    # its threshold must be -inf, not inf * eps (= inf,
                    # which would satisfy `residual <= thresh` forever and
                    # spuriously freeze every user in the first round).
                    sat_thresh.append(
                        _EPS * (c if c > 1.0 else 1.0)
                        if c < math.inf else -math.inf
                    )
                wsum[i] += w
                ucount[i] += 1
                res_users[i].append(f)
                ents.append((i, w))
            f_entries[f] = ents
            if bound < math.inf:
                capped.append(f)
                cap_eff[f] = bound
                cap_thresh[f] = bound - _EPS * (bound if bound > 1.0 else 1.0)
        nres = len(residual)

        guard = 0
        while unfrozen:
            guard += 1
            if guard > 4 * nf + 8:  # pragma: no cover - safety net
                raise SimulationError("progressive filling failed to converge")
            delta = math.inf
            for ws, rest in zip(wsum, residual):
                if ws > 0 and rest < math.inf:
                    d = rest / ws
                    if d < delta:
                        delta = d if d > 0.0 else 0.0
            for f in capped:
                if f in unfrozen:
                    d = cap_eff[f] - rate[f]
                    if d < delta:
                        delta = d
            if not math.isfinite(delta):
                names = sorted(f.name for f in unfrozen)
                raise SimulationError(f"unbounded flows in allocation: {names}")
            if delta < 0.0:
                delta = 0.0
            if delta > 0:
                for f in unfrozen:
                    rate[f] += delta
                for i in range(nres):
                    ws = wsum[i]
                    if ws > 0:
                        residual[i] -= delta * ws
            # freeze flows at their cap, then flows on saturated resources
            newly_frozen = [
                f for f in capped if f in unfrozen and rate[f] >= cap_thresh[f]
            ]
            frozen_set = set(newly_frozen)
            for i in range(nres):
                if residual[i] <= sat_thresh[i]:
                    for f in res_users[i]:
                        if f in unfrozen and f not in frozen_set:
                            frozen_set.add(f)
                            newly_frozen.append(f)
            if not newly_frozen:  # pragma: no cover - numerical corner
                newly_frozen = list(unfrozen)
            for f in newly_frozen:
                if f in unfrozen:
                    del unfrozen[f]
                    for i, w in f_entries[f]:
                        n = ucount[i] - 1
                        ucount[i] = n
                        # Zero exactly when the last user freezes: the
                        # incremental subtraction leaves fp dust that would
                        # otherwise keep a fully-frozen resource in play.
                        wsum[i] = wsum[i] - w if n else 0.0

        f_rate = self._f_rate
        for f in flows:
            r = rate[f]
            f.rate = r
            f_rate[f._slot] = r
        load = self._load
        for r in touched_res:
            load[r] = 0.0
        for f in flows:
            rf = rate[f]
            for r, w in f._weights.items():
                load[r] += w * rf

    def _allocate_array(
        self, flows: list[FluidFlow], touched_res: list[FluidResource]
    ) -> None:
        """Vectorized water-filling over one affected component.

        The component's incidence is assembled as an entry list (CSR
        data): ``ent_flow[k]``/``ent_res[k]``/``ent_w[k]`` say that local
        flow ``ent_flow[k]`` consumes ``ent_w[k]`` bytes of local
        resource ``ent_res[k]`` per payload byte.  Each filling round is
        a handful of fused array ops regardless of component size.
        """
        F = len(flows)
        R = len(touched_res)
        slots = np.fromiter((f._slot for f in flows), dtype=np.intp, count=F)
        if F == len(self._active):
            # Whole-graph allocation (the common churn regime): the
            # incrementally-maintained incidence pool already holds every
            # entry; compact tombstones away and use it in place.
            if self._e_dead:
                self._compact_entries()
            u = self._e_used
            ent_res_g = self._e_res[:u]
            ent_w = self._e_w[:u]
            fsc = self._flow_scratch
            fsc[slots] = np.arange(F)
            ent_flow = fsc[self._e_slot[:u]]
        else:
            # Sub-component: gather the member flows' cached rows.
            res_rows = [f._res_ids for f in flows]
            ent_res_g = np.concatenate(res_rows)
            ent_w = np.concatenate([f._res_ws for f in flows])
            counts = np.fromiter(
                (a.size for a in res_rows), dtype=np.intp, count=F
            )
            ent_flow = np.repeat(np.arange(F), counts)
        # Map global resource ids to component-local [0, R) via scratch.
        if self._res_scratch.size < len(self._resources):
            self._res_scratch = np.zeros(len(self._resources), dtype=np.intp)
        scratch = self._res_scratch
        ridx = np.fromiter((r._idx for r in touched_res), dtype=np.intp, count=R)
        scratch[ridx] = np.arange(R)
        ent_res = scratch[ent_res_g]

        cap_l = self._f_cap[slots]
        r_cap = np.fromiter((r._capacity for r in touched_res), dtype=float, count=R)
        # Single-user resources never arbitrate: fold each private entry
        # into its flow's effective cap (capacity / weight) and keep only
        # the genuinely shared entries in the filling rounds.  The full
        # entry set is retained for the final load update.
        users = self._users
        nusers = np.fromiter(
            (len(users.get(r, ())) for r in touched_res), dtype=np.intp, count=R
        )
        ent_full_res, ent_full_w, ent_full_flow = ent_res, ent_w, ent_flow
        priv = nusers[ent_res] == 1
        if priv.any():
            np.minimum.at(
                cap_l, ent_flow[priv], r_cap[ent_res[priv]] / ent_w[priv]
            )
            shared = ~priv
            ent_res = ent_res[shared]
            ent_w = ent_w[shared]
            ent_flow = ent_flow[shared]
        residual = r_cap.copy()
        wsum = np.bincount(ent_res, weights=ent_w, minlength=R)
        ucount = np.bincount(ent_res, minlength=R)
        # cap_work holds each flow's remaining cap, switched to inf once the
        # flow freezes so min()/compare need no mask; cap_thresh is the
        # freeze band below the cap (mirrors the scalar solver's epsilon).
        cap_work = cap_l.copy()
        cap_thresh = np.full(F, np.inf)
        capped = np.isfinite(cap_l)
        if capped.any():
            cf = cap_l[capped]
            cap_thresh[capped] = cf - _EPS * np.maximum(1.0, cf)
        r_thresh = _EPS * np.maximum(1.0, r_cap)
        # Infinite-capacity resources never saturate; eps * inf would be
        # inf and `residual <= r_thresh` would hold forever, spuriously
        # freezing their users at the first saturation round's level.
        r_thresh[np.isinf(r_cap)] = -np.inf

        # All unfrozen flows grow in lockstep from zero, so the common fill
        # `level` is a scalar; per-flow rates materialize only at freeze
        # time.  Saturated resources get residual=inf once processed so
        # they drop out of both the delta min and the saturation scan.
        rate_l = np.zeros(F)
        unfrozen = np.ones(F, dtype=bool)
        ent_alive = np.ones(ent_res.size, dtype=bool)
        n_unfrozen = F
        level = 0.0
        guard = 0
        while n_unfrozen:
            guard += 1
            if guard > 4 * F + 8:  # pragma: no cover - safety net
                raise SimulationError("progressive filling failed to converge")
            dv = self._div_scratch(R)
            np.divide(residual, wsum, out=dv, where=wsum > 0.0)
            d_res = float(dv.min())
            cap_min = float(cap_work.min())
            if d_res < 0.0:
                d_res = 0.0
            delta = d_res
            # Every cap strictly below the next saturation level freezes in
            # this round: removing a capped flow only ever *raises* the
            # remaining resources' saturation levels, so no saturation can
            # overtake a lower cap.  Each such flow freezes at its own cap.
            cap_batch = cap_min - level < d_res
            if cap_batch:
                # Finite-threshold flows only: when d_res is inf (every
                # remaining constraint is an infinite resource) the band
                # `<= level + d_res` would also sweep up frozen flows and
                # uncapped ones, whose thresholds sit at inf.
                batch = cap_thresh <= level + d_res
                batch &= np.isfinite(cap_thresh)
                if not batch.any():  # pragma: no cover - numerical corner
                    cap_batch = False
            if cap_batch:
                newly = batch
                caps_b = cap_work[batch]
                rate_l[batch] = caps_b
                # residual already charges these flows at `level`; top the
                # charge up to each one's cap without advancing `level`.
                fe = batch[ent_flow]
                fe &= ent_alive
                er = ent_res[fe]
                top_up = (cap_work[ent_flow[fe]] - level) * ent_w[fe]
                residual -= np.bincount(er, weights=top_up, minlength=R)
            else:
                if not math.isfinite(delta):
                    names = sorted(
                        f.name for f, u in zip(flows, unfrozen.tolist()) if u
                    )
                    raise SimulationError(
                        f"unbounded flows in allocation: {names}"
                    )
                if delta > 0.0:
                    level += delta
                    residual -= delta * wsum
                # freeze flows riding on saturated resources at `level`
                newly = cap_thresh <= level
                sat = residual <= r_thresh
                if sat.any():
                    members = ent_flow[sat[ent_res] & ent_alive]
                    if members.size:
                        newly[members] = True
                        newly &= unfrozen
                    residual[sat] = np.inf
                n_also = int(newly.sum())
                if not n_also:  # pragma: no cover - numerical corner
                    newly = unfrozen.copy()
                rate_l[newly] = level
                fe = newly[ent_flow]
                fe &= ent_alive
                er = ent_res[fe]
            n_new = int(newly.sum())
            cap_work[newly] = np.inf
            cap_thresh[newly] = np.inf
            if er.size:
                wsum -= np.bincount(er, weights=ent_w[fe], minlength=R)
                ucount -= np.bincount(er, minlength=R)
                wsum[ucount == 0] = 0.0
                ent_alive &= ~fe
            unfrozen &= ~newly
            n_unfrozen -= n_new

        self._f_rate[slots] = rate_l
        for f, r in zip(flows, rate_l.tolist()):
            f.rate = r
        loads = np.bincount(
            ent_full_res, weights=ent_full_w * rate_l[ent_full_flow], minlength=R
        )
        load = self._load
        for r, v in zip(touched_res, loads.tolist()):
            load[r] = v

    def _schedule_next_completion(self) -> None:
        self._timer_generation += 1
        gen = self._timer_generation
        horizon = self._completion_horizon()
        if horizon is None:
            return
        # The generation rides in the timeout's value so no per-rebalance
        # closure needs to be allocated.  The deadline is absolute: the
        # solver computed `now + remaining/rate` directly.
        timer = self.sim.timeout_at(self.sim.now + horizon, gen)
        timer.add_callback(self._on_timer_event)

    def _completion_horizon(self) -> Optional[float]:
        hw = self._hw
        if not hw:
            return None
        active = self._active
        if len(active) < _VECTOR_MIN_FLOWS:
            f_tr = self._f_transferred
            horizon = math.inf
            for f in active:
                size = f.size
                if size is None or f._rate <= 0:
                    continue
                remaining = size - float(f_tr[f._slot])
                if remaining <= _EPS * size:
                    return 0.0
                eta = remaining / f._rate
                if eta < horizon:
                    horizon = eta
            return horizon if math.isfinite(horizon) else None
        rate = self._f_rate[:hw]
        size = self._f_size[:hw]
        cand = (rate > 0.0) & np.isfinite(size)
        if not cand.any():
            return None
        size_c = size[cand]
        rem = size_c - self._f_transferred[:hw][cand]
        if (rem <= _EPS * size_c).any():
            return 0.0
        return float((rem / rate[cand]).min())

    def _on_timer_event(self, ev: Event) -> None:
        self._on_timer(ev._value)

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a later rebalance
        self.settle()
        if len(self._active) < _VECTOR_MIN_FLOWS:
            f_tr = self._f_transferred
            finished = [
                f
                for f in self._active
                if f.size is not None
                and f.size - float(f_tr[f._slot]) <= _EPS * f.size
            ]
        else:
            hw = self._hw
            size = self._f_size[:hw]
            fin = np.isfinite(size) & (
                size - self._f_transferred[:hw] <= _EPS * size
            )
            if fin.any():
                fin_slots = set(np.nonzero(fin)[0].tolist())
                finished = [f for f in self._active if f._slot in fin_slots]
            else:
                finished = []
        for f in finished:
            f.transferred = f.size  # snap away float dust
            self._deactivate(f)
        self._after_change()


# ---------------------------------------------------------------------------
# Gang mode: one fluid program, many scenarios, scenario index as axis 0.
# ---------------------------------------------------------------------------

@dataclass
class GangRunResult:
    """Outcome of :meth:`GangFluidProgram.run_steady` for all scenarios."""

    #: Bytes delivered per scenario and flow, shape ``(S, F)``.
    transferred: np.ndarray
    #: Completion time per scenario and flow (NaN = never finished).
    finished_at: np.ndarray
    #: Final rate allocation, shape ``(S, F)``.
    rates: np.ndarray
    #: Scenarios whose completion *order* diverged from the pilot
    #: (scenario 0).  Their numbers are still exact — per-scenario
    #: active masks keep the math correct under any order — but a
    #: caller coupling events to completion order (the simulator
    #: integration) can only replay the pilot's order, so these
    #: scenarios must defect to the scalar event kernel.
    defected: np.ndarray
    #: Batched solve/settle rounds the run took (all scenarios share them).
    rounds: int


class GangFluidProgram:
    """S scenarios of one structurally-shared fluid program, batched.

    The gang counterpart of :class:`FluidScheduler`: the *structure*
    (which flows cross which resources, with what incidence) is shared
    by every scenario, while capacities, weights, caps and sizes may
    vary per scenario — the scenario index is the leading axis of every
    array.  One progressive-filling round updates the fill level of
    **all** scenarios at once (a level *vector* where the array solver
    keeps a level scalar), with per-scenario freeze masks, batched
    residual/weight-sum accounting, and per-scenario settle/charge
    updates — so solving S scenarios costs one round-loop instead of S.

    Semantics mirror the scalar solver exactly: max-min fair sharing by
    progressive filling, per-flow caps, private-resource folding, and
    the same epsilon freeze bands (:data:`_EPS`).  The max-min
    allocation is unique, so per-scenario results agree with an
    equivalent :class:`FluidScheduler` run to floating-point tolerance;
    the differential suite (``tests/test_gang_solver.py``) holds every
    observable to 1e-6 and the batched/scalar walls are gated by
    ``benchmarks/bench_gang_solver.py``.

    What this class deliberately does **not** model is event feedback:
    a program whose completions trigger control flow (new flows, cap
    changes, recovery) is only batchable while every scenario agrees
    with the pilot's event order — :meth:`run_steady` reports scenarios
    whose completion order diverges as *defected* so the caller can
    re-run them on the ordinary event kernel.
    """

    def __init__(self, scenarios: int):
        if scenarios < 1:
            raise ValueError(f"need at least one scenario, got {scenarios}")
        self.S = int(scenarios)
        self._r_cap: list[np.ndarray] = []
        self._r_names: list[str] = []
        self._flows: list[dict] = []
        self._sealed = False
        # Built by _seal():
        self._size: Optional[np.ndarray] = None
        self._cap: Optional[np.ndarray] = None
        self.transferred: Optional[np.ndarray] = None
        self.finished_at: Optional[np.ndarray] = None
        #: account key -> (S,) accumulated charges.
        self.charged: dict = {}

    # -- construction ------------------------------------------------------

    def _per_scenario(self, value, what: str, allow_inf: bool = False
                      ) -> np.ndarray:
        out = np.broadcast_to(np.asarray(value, dtype=float),
                              (self.S,)).copy()
        if np.isnan(out).any() or (not allow_inf and np.isinf(out).any()):
            raise ValueError(f"{what} must be finite, got {value!r}")
        return out

    def add_resource(self, capacity, name: str = "") -> int:
        """Add a resource; *capacity* is a scalar or per-scenario ``(S,)``."""
        cap = self._per_scenario(capacity, f"capacity of {name!r}",
                                 allow_inf=True)
        if (cap < 0).any():
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self._r_cap.append(cap)
        self._r_names.append(name)
        return len(self._r_cap) - 1

    def add_flow(self, path, size=None, cap=None, charges=(), name: str = ""
                 ) -> int:
        """Add a flow crossing ``path`` = ``(resource_id, weight)`` pairs.

        Weights, *size* and *cap* may each be scalars or per-scenario
        ``(S,)`` arrays; ``size=None`` is an open-ended flow, ``cap=None``
        uncapped.  *charges* are ``(account_key, cost_per_byte)`` pairs
        debited into :attr:`charged` as the flow progresses.
        """
        weights: dict[int, np.ndarray] = {}
        for rid, w in path:
            if not 0 <= rid < len(self._r_cap):
                raise ValueError(f"flow {name!r}: unknown resource id {rid}")
            wv = self._per_scenario(w, f"weight of {name!r}")
            if (wv <= 0).any():
                raise ValueError(f"flow weight must be > 0, got {w!r}")
            weights[rid] = weights.get(rid, 0.0) + wv
        size_v = None if size is None else self._per_scenario(
            size, f"size of {name!r}")
        if size_v is not None and (size_v <= 0).any():
            raise ValueError(f"flow size must be > 0 or None, got {size!r}")
        cap_v = None if cap is None else self._per_scenario(
            cap, f"cap of {name!r}")
        if cap_v is not None and (cap_v <= 0).any():
            raise ValueError(f"flow cap must be > 0 or None, got {cap!r}")
        if cap_v is None and not any(
            np.isfinite(self._r_cap[rid]).all() for rid in weights
        ):
            raise ValueError(
                f"flow {name!r} is unbounded: no cap and no finite "
                "resource on path"
            )
        self._flows.append({
            "weights": weights,
            "size": size_v,
            "cap": cap_v,
            "charges": tuple((key, self._per_scenario(c, "charge"))
                             for key, c in charges),
            "name": name or f"flow{len(self._flows)}",
        })
        self._sealed = False
        return len(self._flows) - 1

    def _seal(self) -> None:
        """Freeze structure into batch arrays (idempotent until edited)."""
        if self._sealed:
            return
        S, F, R = self.S, len(self._flows), len(self._r_cap)
        self._size = np.full((S, F), np.inf)
        self._cap = np.full((S, F), np.inf)
        for j, f in enumerate(self._flows):
            if f["size"] is not None:
                self._size[:, j] = f["size"]
            if f["cap"] is not None:
                self._cap[:, j] = f["cap"]
        if self.transferred is None:
            self.transferred = np.zeros((S, F))
            self.finished_at = np.full((S, F), np.nan)
        elif self.transferred.shape != (S, F):
            raise SimulationError(
                "cannot add flows or resources after a gang run started")
        # Structural incidence (entry lists, CSR-style like the array
        # solver) and the private/shared split.  A resource with one
        # structural user never arbitrates in any scenario — fold it
        # into that flow's effective cap, exactly as the scalar solver
        # folds private resources at assembly.
        users = np.zeros(R, dtype=np.intp)
        for f in self._flows:
            for rid in f["weights"]:
                users[rid] += 1
        self._cap_eff = self._cap.copy()
        ent_flow: list[int] = []
        ent_res: list[int] = []
        ent_w: list[np.ndarray] = []
        for j, f in enumerate(self._flows):
            for rid, w in f["weights"].items():
                if users[rid] == 1:
                    cap_r = self._r_cap[rid]
                    finite = np.isfinite(cap_r)
                    if finite.any():
                        bound = np.where(finite, cap_r / w, np.inf)
                        np.minimum(self._cap_eff[:, j], bound,
                                   out=self._cap_eff[:, j])
                    continue
                ent_flow.append(j)
                ent_res.append(rid)
                ent_w.append(w)
        shared = sorted(set(ent_res))
        self._shared_cap = (
            np.stack([self._r_cap[rid] for rid in shared], axis=1)
            if shared else np.zeros((S, 0))
        )
        local = {rid: k for k, rid in enumerate(shared)}
        E, Rs = len(ent_flow), len(shared)
        self._ent_flow = np.asarray(ent_flow, dtype=np.intp)
        self._ent_res = np.asarray([local[r] for r in ent_res], dtype=np.intp)
        self._ent_w = (np.stack(ent_w, axis=1) if ent_w
                       else np.zeros((S, 0)))
        # Flattened scatter indices, built once: per-round weight sums and
        # saturation fan-out are single bincounts over these.
        rows = np.repeat(np.arange(S), E)
        self._idx_res = (rows * max(Rs, 1) + np.tile(self._ent_res, S)
                         if E else np.zeros(0, dtype=np.intp))
        self._idx_flow = (rows * F + np.tile(self._ent_flow, S)
                          if E else np.zeros(0, dtype=np.intp))
        self._sealed = True

    # -- the batched water-fill --------------------------------------------

    def solve(self, active: Optional[np.ndarray] = None) -> np.ndarray:
        """Max-min fair rates for all scenarios at once, shape ``(S, F)``.

        *active* masks flows per scenario (default: everything not yet
        finished).  Mirrors the scalar solver round for round: one
        common fill level **per scenario** (a level vector), per-round
        residual/weight-sum updates over the shared entry list, cap and
        saturation freezes with the scalar solver's epsilon bands.
        """
        self._seal()
        S, F = self.S, len(self._flows)
        if F == 0:
            return np.zeros((S, 0))
        if active is None:
            active = ~np.isfinite(self.finished_at) & (
                self.transferred < self._size)
        Rs = self._shared_cap.shape[1]
        rate = np.zeros((S, F))
        unfrozen = active.copy()
        level = np.zeros(S)
        residual = self._shared_cap.copy()
        # Inactive flows contribute nothing anywhere: mask their entries out
        # of residual/wsum for the whole solve.
        sat_thresh = _EPS * np.maximum(1.0, self._shared_cap)
        sat_thresh[np.isinf(self._shared_cap)] = -np.inf
        cap_eff = self._cap_eff
        with np.errstate(invalid="ignore"):
            cap_thresh = np.where(
                np.isfinite(cap_eff),
                cap_eff - _EPS * np.maximum(1.0, cap_eff), np.inf)
        flow_sat = np.zeros(S * F)
        guard = 0
        while unfrozen.any():
            guard += 1
            if guard > 4 * F + 8:  # pragma: no cover - safety net
                raise SimulationError(
                    "gang progressive filling failed to converge")
            alive = unfrozen[:, self._ent_flow] if Rs else unfrozen[:, :0]
            w_alive = self._ent_w * alive
            wsum = np.bincount(
                self._idx_res, weights=w_alive.ravel(),
                minlength=S * max(Rs, 1)).reshape(S, -1)[:, :Rs]
            with np.errstate(divide="ignore", invalid="ignore"):
                dv = np.where(wsum > 0.0, residual / wsum, np.inf)
            d_res = dv.min(axis=1, initial=np.inf)
            np.maximum(d_res, 0.0, out=d_res)
            cap_room = np.where(unfrozen, cap_eff - rate, np.inf).min(
                axis=1, initial=np.inf)
            delta = np.minimum(d_res, cap_room)
            busy = unfrozen.any(axis=1)
            if (busy & ~np.isfinite(delta)).any():
                bad = int(np.nonzero(busy & ~np.isfinite(delta))[0][0])
                names = sorted(self._flows[j]["name"]
                               for j in np.nonzero(unfrozen[bad])[0])
                raise SimulationError(
                    f"unbounded flows in gang allocation "
                    f"(scenario {bad}): {names}")
            delta[~busy] = 0.0
            rate += delta[:, None] * unfrozen
            level += delta
            if Rs:
                residual -= delta[:, None] * wsum
            at_cap = unfrozen & (rate >= cap_thresh)
            if Rs:
                sat = residual <= sat_thresh
                sat_e = (sat[:, self._ent_res] & alive).ravel()
                flow_sat[:] = 0.0
                np.add.at(flow_sat, self._idx_flow[sat_e], 1.0)
                newly = unfrozen & (
                    at_cap | (flow_sat.reshape(S, F) > 0.0))
            else:
                newly = at_cap
            # Numerical corner (mirrors the scalar solver): a busy
            # scenario where nothing froze this round freezes whole.
            stuck = busy & ~newly.any(axis=1)
            if stuck.any():
                newly |= unfrozen & stuck[:, None]
            unfrozen &= ~newly
        return rate

    # -- settle + steady-state driving -------------------------------------

    def settle(self, rates: np.ndarray, dt) -> None:
        """Advance all scenarios by *dt* (scalar or ``(S,)``) at *rates*."""
        self._seal()
        dt_v = np.broadcast_to(np.asarray(dt, dtype=float), (self.S,))
        moved = rates * dt_v[:, None]
        np.minimum(moved, self._size - self.transferred, out=moved)
        self.transferred += moved
        for j, f in enumerate(self._flows):
            for key, per_byte in f["charges"]:
                acct = self.charged.get(key)
                if acct is None:
                    acct = self.charged[key] = np.zeros(self.S)
                acct += per_byte * moved[:, j]

    def run_steady(self, duration: float) -> GangRunResult:
        """Drive every scenario to *duration*, completing sized flows.

        Each batched round advances **every** scenario to its own next
        event (earliest flow completion, else the horizon), so rounds
        are bounded by flows + 1 regardless of how completion times
        spread across scenarios.  Scenario-divergent completion order is
        handled exactly (per-scenario active masks) and *reported*: see
        :attr:`GangRunResult.defected`.
        """
        self._seal()
        S, F = self.S, len(self._flows)
        t = np.zeros(S)
        sequences: list[list[int]] = [[] for _ in range(S)]
        rates = np.zeros((S, F))
        rounds = 0
        while True:
            running = t < duration - _EPS * max(1.0, duration)
            if not running.any():
                break
            rounds += 1
            active = (~np.isfinite(self.finished_at)
                      & (self.transferred < self._size)
                      & running[:, None])
            rates = self.solve(active=active)
            with np.errstate(divide="ignore", invalid="ignore"):
                eta = np.where(active & (rates > 0.0),
                               (self._size - self.transferred) / rates,
                               np.inf)
            eta_min = eta.min(axis=1, initial=np.inf)
            t_next = np.where(running,
                              np.minimum(duration, t + eta_min), t)
            self.settle(rates, t_next - t)
            finished_now = active & np.isfinite(self._size) & (
                self._size - self.transferred <= _EPS * self._size)
            if finished_now.any():
                self.transferred[finished_now] = np.broadcast_to(
                    self._size, finished_now.shape)[finished_now]
                self.finished_at[finished_now] = np.broadcast_to(
                    t_next[:, None], finished_now.shape)[finished_now]
                for s, j in zip(*np.nonzero(finished_now)):
                    sequences[s].append(int(j))
            t = t_next
        pilot = sequences[0]
        defected = np.asarray([seq != pilot for seq in sequences])
        return GangRunResult(transferred=self.transferred.copy(),
                             finished_at=self.finished_at.copy(),
                             rates=rates, defected=defected, rounds=rounds)
