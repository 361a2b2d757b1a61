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

Each flow keeps its own progress (``transferred``) as a Python float.
Settle, next-completion selection and the finish check are loops over
the active flows, and progressive filling is one scalar water-filling
loop over the shared resources of the components being refilled (a
one-flow component just takes its bottleneck).

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
        # bytes delivered so far, settled up to the last settle()
        "transferred",
        "done",
        "_active",
        "started_at",
        "finished_at",
        # owning scheduler while active
        "_sched",
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
        # frozen this fill
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
        self.transferred = 0.0
        self.done: Optional[Event] = None
        self._active = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._sched: Optional["FluidScheduler"] = None
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
    component into its true pieces.
    """

    __slots__ = ("flows", "dirty", "trim", "split")

    def __init__(self, flows: list[FluidFlow]):
        self.flows = flows
        self.dirty = False
        self.trim = False
        self.split = False


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
        flow._comp = comp
        flow._stale = True
        if not comp.dirty:
            comp.dirty = True
            self._dirty.append(comp)
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
        """Change a flow's rate cap (e.g. a TCP window update).

        A flow whose rate sits below its freeze threshold under both the
        old and the new cap froze on a saturated shared resource, and a
        refill would give every rate of its component back bit for bit
        (MODELING.md §7), so the change leaves its component as it was:
        clean, or already due for a refill.  The flush still re-derives
        the next completion deadline.
        """
        if cap is not None and (cap <= 0 or math.isnan(cap)):
            raise ValueError(f"flow cap must be > 0 or None, got {cap}")
        self.settle()
        if not flow._active:
            flow.cap = cap
            return
        if flow._stale:
            self._refresh(flow)
        old = flow._bthresh
        flow.cap = cap
        self._refresh(flow)
        rate = flow._rate
        if not (rate < old and rate < flow._bthresh):
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
            self._settle(elapsed)
            self._last_settle = now
            hub = self._hub
            if hub._channels:
                hub.on_epoch(now)
            self._schedule_next_completion()
            return
        self._settle(elapsed)
        self._last_settle = now
        hub = self._hub
        if hub._channels:
            hub.on_epoch(now)

    @property
    def active_flows(self) -> tuple[FluidFlow, ...]:
        """Snapshot of the currently active flows."""
        return tuple(self._active)

    # -- settle --------------------------------------------------------------
    def _settle(self, elapsed: float) -> None:
        """Accrue *elapsed* seconds of progress and charges at current rates."""
        for flow in self._active:
            rate = flow._rate
            if rate <= 0:
                continue
            delta = rate * elapsed
            size = flow.size
            done = flow.transferred
            if size is not None:
                remaining = size - done
                if delta > remaining:
                    delta = remaining
            if delta <= 0:
                continue
            flow.transferred = done + delta
            charges = flow.charges
            if charges:
                for account, per_byte in charges:
                    account.add(delta * per_byte)

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
        flow._rate = 0.0
        flow._sched = None
        if flow.done is not None and not flow.done.triggered:
            flow.done.succeed(flow.transferred)

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
        if len(comps) == 1:
            flows = comps[0].flows
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
        f._bthresh = (bound - _EPS * (bound if bound > 1.0 else 1.0)
                      if bound < math.inf else math.inf)
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

    def _allocate_scalar(self, flows: list[FluidFlow]) -> None:
        """Progressive filling over the refilled components' flows.

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
        horizon = math.inf
        for f in self._active:
            size = f.size
            if size is None or f._rate <= 0:
                continue
            remaining = size - f.transferred
            if remaining <= _EPS * size:
                return 0.0
            eta = remaining / f._rate
            if eta < horizon:
                horizon = eta
        return horizon if math.isfinite(horizon) else None

    def _on_timer_event(self, ev: Event) -> None:
        self._on_timer(ev._value)

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a later rebalance
        self._deadline = None
        self.settle()
        finished = [
            f
            for f in self._active
            if f.size is not None and f.size - f.transferred <= _EPS * f.size
        ]
        for f in finished:
            f.transferred = f.size  # snap away float dust
            self._deactivate(f)
        self._after_change()
