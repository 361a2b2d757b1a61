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
indexed by a per-scheduler *slot*).  For a component of at least
:data:`_VECTOR_MIN_FLOWS` flows, each member's resource incidence (index
and weight arrays, built on first use and cached on the flow) is
concatenated into a CSR-like entry list, and progressive filling runs as
a vectorized water-filling loop over boolean freeze masks.  ``settle``
is one fused ``transferred += rate·dt`` update plus a sparse
matrix-vector product over the charge incidence, and next-completion
selection is an ``argmin`` over ``remaining / rate``.  Smaller
components (and active sets) take scalar loops over plain lists and the
same slot arrays instead, where numpy's per-call overhead would
dominate.

Only the connected components of the flow/resource sharing graph touched
by a change are recomputed, and flow transitions at one simulated
instant share one deferred rebalance (see :meth:`FluidScheduler.flush`).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Protocol, Sequence

import numpy as np

from repro import metrics
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.sampling import hub_for

__all__ = [
    "FluidResource",
    "FluidFlow",
    "FluidScheduler",
    "FluidStats",
    "ChargeAccount",
]

_EPS = 1e-9

#: Components smaller than this run the scalar filling loop: per-call
#: numpy dispatch overhead (~µs) beats dict walks only once a component
#: has enough flows to amortize it.
_VECTOR_MIN_FLOWS = 16

#: Compact the charge-incidence pool once dead entries outnumber live ones
#: (and the pool is big enough for compaction to matter).
_CHARGE_COMPACT_MIN = 128


#: Process-wide allocator counters (the ``fluid`` registry layer).
_TOTALS = metrics.counters("fluid", rebalances=0, allocations=0,
                           flows_recomputed=0, flows_skipped=0)


class FluidStats:
    """Allocator counters: how much work incremental rebalancing avoids.

    ``rebalances`` counts :meth:`FluidScheduler._rebalance` calls,
    ``allocations`` those that actually recomputed rates (a dirty set was
    pending), ``flows_recomputed`` the flows touched by progressive
    filling, and ``flows_skipped`` the active flows whose cached rates
    were provably unaffected and therefore reused.  The scheduler counts
    each into the ``fluid`` registry layer as well.
    """

    __slots__ = ("rebalances", "allocations", "flows_recomputed", "flows_skipped")

    def __init__(self) -> None:
        self.rebalances = 0
        self.allocations = 0
        self.flows_recomputed = 0
        self.flows_skipped = 0

    @staticmethod
    def process_totals() -> dict[str, int]:
        """The ``fluid`` registry layer as a plain dict."""
        return dict(_TOTALS)

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for reports and JSON)."""
        return {name: getattr(self, name) for name in self.__slots__}

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
        # `not x > 0` rejects zero, negatives and NaN in one compare.
        weights: dict[FluidResource, float] = {}
        for res, w in path:
            if not w > 0:
                raise ValueError(f"flow weight must be > 0, got {w}")
            weights[res] = weights.get(res, 0.0) + w
        if size is not None and not size > 0:
            raise ValueError(f"flow size must be > 0 or None, got {size}")
        if cap is not None and not cap > 0:
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
            return self._sched._f_transferred.item(self._slot)
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
        users = self._users
        dirty = self._dirty
        for r in flow._weights:
            res_users = users.get(r)
            if res_users is None:
                users[r] = {flow: None}
            else:
                res_users[flow] = None
            dirty[r] = None
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
            _TOTALS["rebalances"] += 1
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
            # (same arithmetic, element by element, in Python floats).
            f_tr = self._f_transferred
            for flow in active:
                rate = flow._rate
                if rate <= 0:
                    continue
                delta = rate * elapsed
                size = flow.size
                slot = flow._slot
                done = f_tr.item(slot)
                if size is not None:
                    remaining = size - done
                    if delta > remaining:
                        delta = remaining
                if delta <= 0:
                    continue
                f_tr[slot] = done + delta
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
        # A free slot already reads rate 0, cap inf and size inf (see
        # _grow_slots and _release_slot): only finite values are written.
        if not self._free_slots:
            self._grow_slots()
        slot = self._free_slots.pop()
        flow._slot = slot
        if slot >= self._hw:
            self._hw = slot + 1
        if flow.cap is not None:
            self._f_cap[slot] = flow.cap
        if flow.size is not None:
            self._f_size[slot] = flow.size
        self._f_transferred[slot] = flow._transferred
        if not flow.charges:
            return
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
        self._free_slots.extend(range(new - 1, old - 1, -1))
        fsc = np.zeros(new, dtype=np.intp)
        fsc[:old] = self._flow_scratch
        self._flow_scratch = fsc

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
        flow._transferred = self._f_transferred.item(slot)
        self._f_rate[slot] = 0.0
        if flow.cap is not None:
            self._f_cap[slot] = np.inf
        if flow.size is not None:
            self._f_size[slot] = np.inf
        flow._slot = -1
        self._free_slots.append(slot)
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
        _TOTALS["rebalances"] += 1
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
        # Visit stamps instead of membership sets: one epoch counter per
        # closure, one attribute compare per membership test (the BFS runs
        # on every rebalance, so constant factors matter).  The dirty
        # resources are distinct and none carries the fresh epoch yet, so
        # they seed the closure wholesale.
        epoch = self._visit_epoch + 1
        self._visit_epoch = epoch
        affected_res: list[FluidResource] = list(self._dirty)
        for r in affected_res:
            r._visit = epoch
        stack = affected_res.copy()
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
        nf = len(flows)
        skipped = len(self._active) - nf
        stats = self.stats
        stats.allocations += 1
        stats.flows_recomputed += nf
        stats.flows_skipped += skipped
        _TOTALS["allocations"] += 1
        _TOTALS["flows_recomputed"] += nf
        _TOTALS["flows_skipped"] += skipped
        load = self._load
        if not flows:
            for r in touched_res:
                load[r] = 0.0
            return
        if nf == 1:
            self._allocate_single(flows[0], touched_res)
        elif nf >= _VECTOR_MIN_FLOWS:
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
        f._rate = delta
        self._f_rate[f._slot] = delta
        load = self._load
        weights = f._weights
        for r in touched_res:
            load[r] = weights[r] * delta if r in weights else 0.0

    def _allocate_scalar(
        self, flows: list[FluidFlow], touched_res: list[FluidResource]
    ) -> None:
        """Scalar progressive filling over one small affected component.

        Flows are numbered by their position in *flows* and shared
        resources by first appearance, so the filling rounds index plain
        lists.  All unfrozen flows grow in lockstep from zero, so their
        common rate is one scalar ``level``, the running sum of the
        rounds' increments, and a flow's rate is the level it froze at.

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
        inf = math.inf
        # Per shared resource: residual capacity, weight sum and count of
        # *unfrozen* users (maintained incrementally as flows freeze),
        # member flows, and saturation threshold.
        res_index: dict[FluidResource, int] = {}
        residual: list[float] = []
        wsum: list[float] = []
        ucount: list[int] = []
        res_users: list[list[int]] = []
        sat_thresh: list[float] = []
        # Per flow: its shared entries (resource, weight).  ``capped``
        # holds ``(flow, effective cap, freeze threshold)`` for every
        # unfrozen flow whose effective cap is finite.
        f_entries: list[list[tuple[int, float]]] = []
        capped: list[tuple[int, float, float]] = []
        for j, f in enumerate(flows):
            bound = f.cap
            if bound is None:
                bound = inf
            ents = []
            for r, w in f._weights.items():
                if len(users[r]) == 1:
                    c = r._capacity
                    if c < inf:
                        b = c / w
                        if b < bound:
                            bound = b
                    continue
                i = res_index.get(r)
                if i is None:
                    i = res_index[r] = len(residual)
                    c = r._capacity
                    residual.append(c)
                    wsum.append(w)
                    ucount.append(1)
                    res_users.append([j])
                    # An infinite-capacity resource can never saturate:
                    # its threshold must be -inf, not inf * eps (= inf,
                    # which would satisfy `residual <= thresh` forever and
                    # spuriously freeze every user in the first round).
                    sat_thresh.append(
                        _EPS * (c if c > 1.0 else 1.0) if c < inf else -inf)
                else:
                    wsum[i] += w
                    ucount[i] += 1
                    res_users[i].append(j)
                ents.append((i, w))
            f_entries.append(ents)
            if bound < inf:
                capped.append(
                    (j, bound, bound - _EPS * (bound if bound > 1.0 else 1.0)))

        rate = [0.0] * nf
        frozen = [False] * nf
        n_unfrozen = nf
        level = 0.0
        guard = 0
        while n_unfrozen:
            guard += 1
            if guard > 4 * nf + 8:  # pragma: no cover - safety net
                raise SimulationError("progressive filling failed to converge")
            delta = inf
            for ws, rest in zip(wsum, residual):
                if ws > 0 and rest < inf:
                    d = rest / ws
                    if d < delta:
                        delta = d if d > 0.0 else 0.0
            for _j, cap, _thresh in capped:
                d = cap - level
                if d < delta:
                    delta = d
            if delta == inf:
                names = sorted(f.name for f, z in zip(flows, frozen) if not z)
                raise SimulationError(f"unbounded flows in allocation: {names}")
            if delta < 0.0:
                delta = 0.0
            if delta > 0:
                level += delta
                for i, ws in enumerate(wsum):
                    if ws > 0:
                        residual[i] -= delta * ws
            # Freeze flows at their cap, then flows on saturated resources.
            # A saturated resource loses every unfrozen user this round, so
            # its residual is parked at inf to keep it out of later scans.
            newly = []
            for j, _cap, thresh in capped:
                if level >= thresh:
                    frozen[j] = True
                    newly.append(j)
            for i, rest in enumerate(residual):
                if rest <= sat_thresh[i]:
                    residual[i] = inf
                    for j in res_users[i]:
                        if not frozen[j]:
                            frozen[j] = True
                            newly.append(j)
            if not newly:  # pragma: no cover - numerical corner
                newly = [j for j in range(nf) if not frozen[j]]
                for j in newly:
                    frozen[j] = True
            for j in newly:
                rate[j] = level
                for i, w in f_entries[j]:
                    n = ucount[i] - 1
                    ucount[i] = n
                    # Zero exactly when the last user freezes: the
                    # incremental subtraction leaves fp dust that would
                    # otherwise keep a fully-frozen resource in play.
                    wsum[i] = wsum[i] - w if n else 0.0
            n_unfrozen -= len(newly)
            if capped:
                capped = [c for c in capped if not frozen[c[0]]]

        f_rate = self._f_rate
        load = self._load
        for r in touched_res:
            load[r] = 0.0
        for f, rf in zip(flows, rate):
            f._rate = rf
            f_rate[f._slot] = rf
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
        local = np.arange(F)
        order = flows
        if F == len(self._active):
            # Whole-graph allocation: entries go in activation order, the
            # order the per-resource bincount sums below have always added
            # up in (another order can move a result by an ulp).
            order = self._active
            fsc = self._flow_scratch
            fsc[slots] = local
            local = fsc[np.fromiter(
                (f._slot for f in order), dtype=np.intp, count=F)]
        # Concatenate the member flows' incidence rows, built on a flow's
        # first array allocation and cached on it.
        res_rows = []
        w_rows = []
        for f in order:
            ids = f._res_ids
            if ids is None:
                n = len(f._weights)
                ids = f._res_ids = np.fromiter(
                    (r._idx for r in f._weights), dtype=np.intp, count=n)
                f._res_ws = np.fromiter(
                    f._weights.values(), dtype=float, count=n)
            res_rows.append(ids)
            w_rows.append(f._res_ws)
        ent_res_g = np.concatenate(res_rows)
        ent_w = np.concatenate(w_rows)
        counts = np.fromiter((a.size for a in res_rows), dtype=np.intp, count=F)
        ent_flow = np.repeat(local, counts)
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
            f._rate = r
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
                remaining = size - f_tr.item(f._slot)
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
                and f.size - f_tr.item(f._slot) <= _EPS * f.size
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
