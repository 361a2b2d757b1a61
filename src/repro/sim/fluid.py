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

Flow state lives in flat numpy arrays (rate, size, transferred, indexed
by a per-scheduler *slot*).  For a component of at least
:data:`_VECTOR_MIN_FLOWS` flows, the members' shared entries form a
CSR-like entry list (cached on the component), and progressive filling
runs as a vectorized water-filling loop over boolean freeze masks.
``settle`` is one fused ``transferred += rate·dt`` update plus a sparse
matrix-vector product over the charge incidence, and next-completion
selection is an ``argmin`` over ``remaining / rate``.  Smaller
components (and active sets) take scalar loops over the objects and the
same slot arrays instead, where numpy's per-call overhead would
dominate.

The connected components of the flow/resource sharing graph are kept
between rebalances (:class:`_Component`), and only the ones a change
touched are refilled, always in admission order.  Flow transitions at
one simulated instant share one deferred rebalance (see
:meth:`FluidScheduler.flush`).
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Any, Iterable, List, Mapping, Optional, Protocol, Sequence

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


def _seq_of(flow: "FluidFlow") -> int:
    return flow._seq


#: The users of an idle resource: one shared, read-only empty mapping,
#: replaced by a fresh dict when a flow arrives.
_IDLE: Mapping = MappingProxyType({})


#: Process-wide allocator counters (the ``fluid`` registry layer).
_TOTALS = metrics.counters("fluid", rebalances=0, allocations=0,
                           flows_recomputed=0, flows_skipped=0)


class FluidStats:
    """Allocator counters: how much work incremental rebalancing avoids.

    ``rebalances`` counts :meth:`FluidScheduler._rebalance` calls,
    ``allocations`` those that actually recomputed rates (a component
    was dirty), ``flows_recomputed`` the flows touched by progressive
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
    rebalances all flows when it does.  ``kind`` is an optional label
    (``"link"``, ``"mem"``, ...) that topology builders set.
    """

    __slots__ = (
        "scheduler",
        "name",
        "kind",
        "_capacity",
        # active users in admission order, and the sum of their weights
        # here, added up in that order (kept between rebalances)
        "_users",
        "_wsum",
        # visit stamp and per-fill working state of the filling loops
        "_visit",
        "_rest",
        "_ws",
        "_uc",
        "_sat",
        "_i",
    )

    def __init__(self, scheduler: "FluidScheduler", capacity: float, name: str = ""):
        if capacity < 0 or math.isnan(capacity):
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.scheduler = scheduler
        self.name = name
        self._capacity = float(capacity)
        self._users: Mapping[FluidFlow, None] = _IDLE
        self._wsum = 0.0
        self._visit = 0

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
        users = self._users
        if not users:
            # Idle resource: no active flow can see the change, so skip
            # the full settle + rebalance (SSD throttle ticks and link
            # renegotiations before any transfer starts hit this path).
            self._capacity = float(capacity)
            return
        scheduler = self.scheduler
        scheduler.settle()
        self._capacity = float(capacity)
        if len(users) == 1:
            for flow in users:  # a private resource bounds its one user
                flow._stale = True
        scheduler._mark(next(iter(users))._comp)
        scheduler._after_change()

    @property
    def load(self) -> float:
        """Current weighted demand through this resource (bytes/s).

        Summed on demand over the resource's active users in admission
        order, the order every fill runs in, so a read gives to the bit
        what summing at the end of each allocation would have.  A
        deferred (coalesced) rebalance is flushed first so mid-timestamp
        readers always observe settled loads.
        """
        scheduler = self.scheduler
        if scheduler._pending:
            scheduler.flush()
        load = 0.0
        for flow in self._users:
            load += flow._weights[self] * flow._rate
        return load

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
        # charge-pool range
        "_slot",
        "_sched",
        "_c_start",
        "_c_n",
        # admission sequence number (the canonical fill order), owning
        # component, and split-walk visit stamp
        "_seq",
        "_comp",
        "_visit",
        # cached fill inputs, recomputed when ``_stale``: the effective
        # cap with every private resource folded in, its freeze
        # threshold, and the ``(resource, weight)`` entries on shared
        # resources
        "_bound",
        "_bthresh",
        "_shared",
        "_stale",
        # scalar fill: frozen this fill
        "_frozen",
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
        self._c_start = 0
        self._c_n = 0
        self._seq = 0
        self._comp: Optional[_Component] = None
        self._visit = 0
        self._bound = math.inf
        self._bthresh = math.inf
        self._shared: list[tuple[FluidResource, float]] = []
        self._stale = True
        self._frozen = False

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


class _Component:
    """A connected component of the flow/resource sharing graph.

    Kept between flushes: ``flows`` stays sorted by admission sequence
    (a new flow always sorts last, merged components are merged in
    order).  ``dirty`` marks a component the next flush refills.  A
    released flow stays listed until that flush trims it (``trim``); if
    it may have been a bridge, ``split`` asks the flush to re-walk the
    component into its true pieces.  ``csr`` caches the array fill's
    incidence while the membership is unchanged.
    """

    __slots__ = ("flows", "dirty", "trim", "split", "csr")

    def __init__(self, flows: list[FluidFlow]):
        self.flows = flows
        self.dirty = False
        self.trim = False
        self.split = False
        self.csr: Optional[tuple] = None


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
        self._active: list[FluidFlow] = []
        self._last_settle = sim.now
        # The pending completion timer: its generation and its deadline
        # (None when no timer is live).
        self._timer_generation = 0
        self._deadline: Optional[float] = None
        # Incremental-allocation state: the components the next
        # allocation refills (see _mark), a visit-stamp epoch, and the
        # admission counter.
        self._dirty: list[_Component] = []
        self._visit_epoch = 0
        self._seq = 0
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
        # Scratch for the per-round residual/wsum division.
        self._div = np.empty(16)

    # -- public API ------------------------------------------------------------
    def _admit(self, flow: FluidFlow) -> Event:
        """Activate *flow* (post-settle bookkeeping shared by start paths)."""
        flow.done = Event(self.sim, name=f"flow:{flow.name}")
        flow._active = True
        flow._sched = self
        flow.started_at = self.sim.now
        self._seq = flow._seq = self._seq + 1
        self._active.append(flow)
        # Join the components of every resource on the path.  The new
        # flow sorts last everywhere, so appending keeps each ``flows``
        # list and each resource's weight sum in admission order.
        comp = None
        others: list[_Component] = []
        for r, w in flow._weights.items():
            users = r._users
            if users:
                if len(users) == 1:
                    for g in users:  # r stops being private to g
                        g._stale = True
                c = next(iter(users))._comp
                if comp is None:
                    comp = c
                elif c is not comp and c not in others:
                    others.append(c)
                r._wsum += w
                users[flow] = None
            else:
                r._users = {flow: None}
                r._wsum = w
        if comp is None:
            comp = _Component([flow])
        else:
            if others:
                comp = self._merge(comp, others)
            comp.flows.append(flow)
            comp.csr = None
        flow._comp = comp
        flow._stale = True
        if not comp.dirty:
            comp.dirty = True
            self._dirty.append(comp)
        self._bind_slot(flow)
        return flow.done

    @staticmethod
    def _merge(comp: _Component, others: list[_Component]) -> _Component:
        """Fold *others* into the largest of them and *comp*.

        The absorbed components are left empty, so a dirty mark on one
        of them refills nothing.
        """
        parts = [comp, *others]
        base = max(parts, key=lambda c: len(c.flows))
        flows = []
        for c in parts:
            flows += c.flows
            if c is not base:
                for g in c.flows:
                    g._comp = base
                c.flows = []
                base.trim |= c.trim
                base.split |= c.split
        flows.sort(key=_seq_of)
        base.flows = flows
        return base

    def _mark(self, comp: _Component) -> None:
        """Have the next flush refill *comp*."""
        if not comp.dirty:
            comp.dirty = True
            self._dirty.append(comp)

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
            flow._stale = True
            self._mark(flow._comp)
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
        # A free slot already reads rate 0 and size inf (see _grow_slots
        # and _release_slot): only finite values are written.
        if not self._free_slots:
            self._grow_slots()
        slot = self._free_slots.pop()
        flow._slot = slot
        if slot >= self._hw:
            self._hw = slot + 1
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
        for name in ("_f_rate", "_f_size", "_f_transferred"):
            arr = getattr(self, name)
            grown = np.empty(new)
            grown[:old] = arr
            setattr(self, name, grown)
        self._f_size[old:] = np.inf
        self._f_rate[old:] = 0.0
        self._f_transferred[old:] = 0.0
        self._free_slots.extend(range(new - 1, old - 1, -1))

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
        # The next flush trims the flow from its component, and re-walks
        # the component if the flow joined two or more resources that
        # still have users (it may have been a bridge between them).
        comp = flow._comp
        comp.trim = True
        comp.csr = None
        self._mark(comp)
        linked = 0
        for r in flow._weights:
            users = r._users
            del users[flow]
            if len(users) > 1:
                linked += 1
                # Re-add the survivors' weights in admission order.
                wsum = 0.0
                for g in users:
                    wsum += g._weights[r]
                r._wsum = wsum
            elif users:
                linked += 1
                for g in users:  # r becomes private to g
                    g._stale = True
                    r._wsum = g._weights[r]
            else:
                r._users = _IDLE
        if linked > 1:
            comp.split = True
        flow._comp = None
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

    def _dirty_components(self) -> list[_Component]:
        """The components the next allocation refills, made exact.

        Max-min fairness decomposes over connected components of the
        bipartite flow-resource graph, so only the components a change
        touched can see their rates change; every other active flow
        keeps its cached rate.  Released flows are trimmed here, and a
        component that may have lost a bridge is re-walked into its true
        pieces.  Every piece holds a resource the released flow used (it
        hung off the rest through one), so every piece is refilled.
        """
        comps: list[_Component] = []
        for c in self._dirty:
            c.dirty = False
            if c.trim:
                c.flows = [f for f in c.flows if f._active]
                c.trim = False
            if not c.flows:
                continue  # emptied, or absorbed by a merge
            if c.split:
                c.split = False
                comps += self._split(c)
            else:
                comps.append(c)
        self._dirty.clear()
        return comps

    def _split(self, comp: _Component) -> list[_Component]:
        """Re-walk *comp* into its connected pieces (each sorted by seq)."""
        epoch = self._visit_epoch = self._visit_epoch + 1
        pieces = []
        for f in comp.flows:
            if f._visit == epoch:
                continue
            piece = _Component([])
            pieces.append(piece)
            f._visit = epoch
            f._comp = piece
            stack = [f]
            while stack:
                g = stack.pop()
                for r in g._weights:
                    if r._visit != epoch:
                        r._visit = epoch
                        for h in r._users:
                            if h._visit != epoch:
                                h._visit = epoch
                                h._comp = piece
                                stack.append(h)
        # Dealt out in order, so every piece's list is sorted too.
        for f in comp.flows:
            f._comp.flows.append(f)
        return pieces

    def _allocate(self) -> None:
        """Recompute max-min fair rates over the dirty components
        (incremental progressive filling)."""
        if not self._dirty:
            return
        comps = self._dirty_components()
        # Fill in admission order: the allocation is then a function of
        # the flow set, not of how its components were found or built.
        comp: Optional[_Component] = None
        if len(comps) == 1:
            comp = comps[0]
            flows = comp.flows
        else:
            flows = [f for c in comps for f in c.flows]
            flows.sort(key=_seq_of)
        nf = len(flows)
        skipped = len(self._active) - nf
        stats = self.stats
        stats.allocations += 1
        stats.flows_recomputed += nf
        stats.flows_skipped += skipped
        _TOTALS["allocations"] += 1
        _TOTALS["flows_recomputed"] += nf
        _TOTALS["flows_skipped"] += skipped
        if nf == 1:
            self._allocate_single(flows[0])
        elif nf >= _VECTOR_MIN_FLOWS:
            self._allocate_array(flows, comp)
        elif nf:
            self._allocate_scalar(flows)

    @staticmethod
    def _refresh(f: FluidFlow) -> None:
        """Recompute *f*'s cached fill inputs (see ``FluidFlow._stale``).

        Resources with a single user never arbitrate between flows: such
        a *private* resource is exactly a rate cap of ``capacity / weight``
        on its one flow, so it is folded into the flow's effective cap and
        drops out of the filling rounds entirely.  In the pipelined
        topologies this library models most path entries are private (a
        flow's own CPU, its DMA engine, its half of a link), so the rounds
        touch only the handful of genuinely shared resources.  The cache
        goes stale when the flow's cap changes, a private resource's
        capacity changes, or a path resource gains or loses its second
        user.
        """
        bound = f.cap
        if bound is None:
            bound = math.inf
        shared = []
        for r, w in f._weights.items():
            if len(r._users) == 1:
                c = r._capacity
                if c < math.inf:
                    b = c / w
                    if b < bound:
                        bound = b
            else:
                shared.append((r, w))
        f._bound = bound
        f._bthresh = bound - _EPS * (bound if bound > 1.0 else 1.0)
        f._shared = shared
        f._stale = False

    def _allocate_single(self, f: FluidFlow) -> None:
        """One-flow component: the fair rate is just the bottleneck.

        Progressive filling with a single flow converges in one round to
        its effective cap, ``min(cap, min over path of capacity / weight)``.
        """
        if f._stale:
            self._refresh(f)
        rate = f._bound
        if rate == math.inf:
            raise SimulationError(f"unbounded flows in allocation: {[f.name]}")
        f._rate = rate
        self._f_rate[f._slot] = rate

    def _allocate_scalar(self, flows: list[FluidFlow]) -> None:
        """Scalar progressive filling over a few small components.

        All unfrozen flows grow in lockstep from zero, so their common
        rate is one scalar ``level``, the running sum of the rounds'
        increments, and a flow's rate is the level it froze at.  The
        working state lives on the objects: each shared resource's
        residual capacity (``_rest``), the weight sum (``_ws``, from the
        admission-order ``_wsum``) and count (``_uc``) of its *unfrozen*
        users, and its saturation threshold (``_sat``); each flow's
        ``_frozen`` flag.  Flows enter with their cached effective caps
        and shared entries, so assembly is one pass over the shared
        entries.
        """
        inf = math.inf
        epoch = self._visit_epoch = self._visit_epoch + 1
        refresh = self._refresh
        # Finite-capacity shared resources still able to saturate (an
        # infinite one never does); ``capped`` holds ``(flow, effective
        # cap, freeze threshold)`` for every unfrozen flow with a finite
        # effective cap.
        live: list[FluidResource] = []
        capped: list[tuple[FluidFlow, float, float]] = []
        for f in flows:
            if f._stale:
                refresh(f)
            f._frozen = False
            bound = f._bound
            if bound < inf:
                capped.append((f, bound, f._bthresh))
            for r, _w in f._shared:
                if r._visit != epoch:
                    r._visit = epoch
                    r._ws = r._wsum
                    r._uc = len(r._users)
                    c = r._rest = r._capacity
                    if c < inf:
                        r._sat = _EPS * (c if c > 1.0 else 1.0)
                        live.append(r)

        f_rate = self._f_rate
        nf = n_unfrozen = len(flows)
        level = 0.0
        guard = 0
        while n_unfrozen:
            guard += 1
            if guard > 4 * nf + 8:  # pragma: no cover - safety net
                raise SimulationError("progressive filling failed to converge")
            delta = inf
            for r in live:
                ws = r._ws
                if ws > 0:
                    d = r._rest / ws
                    if d < delta:
                        delta = d if d > 0.0 else 0.0
            for _f, cap, _thresh in capped:
                d = cap - level
                if d < delta:
                    delta = d
            if delta == inf:
                names = sorted(f.name for f in flows if not f._frozen)
                raise SimulationError(f"unbounded flows in allocation: {names}")
            if delta < 0.0:
                delta = 0.0
            if delta > 0:
                level += delta
                for r in live:
                    ws = r._ws
                    if ws > 0:
                        r._rest -= delta * ws
            # Freeze flows at their cap, then flows on saturated resources.
            # A saturated resource loses every unfrozen user this round, so
            # it leaves the live set.
            newly = []
            for f, _cap, thresh in capped:
                if level >= thresh:
                    f._frozen = True
                    newly.append(f)
            n_capped = len(newly)
            saturated = False
            for r in live:
                if r._rest <= r._sat:
                    saturated = True
                    for g in r._users:
                        if not g._frozen:
                            g._frozen = True
                            newly.append(g)
            if saturated:
                live = [r for r in live if r._rest > r._sat]
                if len(newly) > n_capped:
                    # Release the round's freezes in flow order, so the
                    # weight sums below drop them in an order the
                    # resource numbering cannot change.
                    newly.sort(key=_seq_of)
            if not newly:  # pragma: no cover - numerical corner
                newly = [f for f in flows if not f._frozen]
                for f in newly:
                    f._frozen = True
            for f in newly:
                f._rate = level
                f_rate[f._slot] = level
                for r, w in f._shared:
                    n = r._uc - 1
                    r._uc = n
                    # Zero exactly when the last user freezes: the
                    # incremental subtraction leaves fp dust that would
                    # otherwise keep a fully-frozen resource in play.
                    r._ws = r._ws - w if n else 0.0
            n_unfrozen -= len(newly)
            if capped:
                capped = [c for c in capped if not c[0]._frozen]

    def _incidence(self, flows: list[FluidFlow]) -> tuple:
        """The array fill's CSR data over the flows' shared entries.

        ``ent_flow[k]``/``ent_res[k]``/``ent_w[k]`` say that local flow
        ``ent_flow[k]`` (its position in *flows*) consumes ``ent_w[k]``
        bytes of local shared resource ``ent_res[k]`` per payload byte.
        Entries run flow by flow in admission order, the order every
        per-resource ``bincount`` sum then adds up in.
        """
        epoch = self._visit_epoch = self._visit_epoch + 1
        res: list[FluidResource] = []
        ent_res: list[int] = []
        ent_w: list[float] = []
        ent_flow: list[int] = []
        for j, f in enumerate(flows):
            for r, w in f._shared:
                if r._visit != epoch:
                    r._visit = epoch
                    r._i = len(res)
                    res.append(r)
                ent_res.append(r._i)
                ent_w.append(w)
                ent_flow.append(j)
        R = len(res)
        ent_res_a = np.array(ent_res, dtype=np.intp)
        ent_w_a = np.array(ent_w, dtype=float)
        slots = np.fromiter((f._slot for f in flows), dtype=np.intp,
                            count=len(flows))
        return (slots, res, ent_res_a, ent_w_a,
                np.array(ent_flow, dtype=np.intp),
                np.bincount(ent_res_a, weights=ent_w_a, minlength=R),
                np.bincount(ent_res_a, minlength=R))

    def _allocate_array(
        self, flows: list[FluidFlow], comp: Optional[_Component]
    ) -> None:
        """Vectorized water-filling over the affected components.

        Each filling round is a handful of fused array ops over the CSR
        incidence of the shared entries (:meth:`_incidence`), regardless
        of component size.  The incidence of a single component is cached
        on it until its membership changes, so a flush that only changes
        caps or capacities (a TCP window tick) reuses it unchanged.
        """
        F = len(flows)
        refresh = self._refresh
        for f in flows:
            if f._stale:
                refresh(f)
        csr = None if comp is None else comp.csr
        if csr is None:
            csr = self._incidence(flows)
            if comp is not None:
                comp.csr = csr
        slots, res, ent_res, ent_w, ent_flow, wsum0, ucount0 = csr
        R = len(res)
        r_cap = np.fromiter((r._capacity for r in res), dtype=float, count=R)
        cap_l = np.fromiter((f._bound for f in flows), dtype=float, count=F)
        residual = r_cap.copy()
        wsum = wsum0.copy()
        ucount = ucount0.copy()
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
            d_res = math.inf
            if R:
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

    def _schedule_next_completion(self) -> None:
        horizon = self._completion_horizon()
        if horizon is None:
            self._timer_generation += 1  # orphan any pending timer
            self._deadline = None
            return
        deadline = self.sim.now + horizon
        if deadline == self._deadline:
            return  # the pending timer already fires then
        self._timer_generation += 1
        self._deadline = deadline
        # The generation rides in the timeout's value so no per-rebalance
        # closure needs to be allocated.  The deadline is absolute: the
        # solver computed `now + remaining/rate` directly.
        timer = self.sim.timeout_at(deadline, self._timer_generation)
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
        self._deadline = None
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
