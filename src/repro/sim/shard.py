"""Topology-sharded parallel simulation with boundary-flow exchange.

A fabric of hundreds of hosts cannot run as one event simulation in
reasonable wall-clock time: one shared WAN resource merges every pod's
flows into a single fluid component, so every job start/stop rebalances
the whole fleet.  This module partitions the topology into **cells**
(pods): each cell keeps its hosts' NUMA-local rails, NICs and links
intact inside one private :class:`~repro.sim.context.Context`, and the
fabric is cut only along WAN/aggregation links — the
:class:`BoundaryLink` set.  Cells then run as independent tasks on the
:mod:`repro.exec` process pool, grouped into shard slices.

**Boundary protocol.**  The simulated horizon is split into fixed
epochs.  Inside a cell, each cut link is represented by a
:class:`~repro.net.link.CutLinkStub` whose per-epoch capacity is the
cell's granted share of the real link.  Cross-boundary flows traverse
the stub and carry a per-flow charge account, so the cell records,
per ``(boundary, epoch)``, each flow's exact byte count (charges are
debited by the fluid scheduler itself, so flows that start *and*
finish inside one epoch are still accounted).  Rounds iterate
waveform-relaxation style:

1. round 0 runs every cell with optimistic grants (the full link);
2. the coordinator water-fills each ``(boundary, epoch)`` over the
   reported per-flow demands — a flow on a saturated stub that is not
   pinned at its own rate cap counts as *hungry* (unbounded want) —
   and grants each cell the sum of its flows' shares plus an equal
   split of any slack;
3. cells re-run under the new grant series until the grant matrix is
   stable within ``tol`` (epsilon mode) or for a fixed round count.

If round 0 shows every boundary unsaturated, it is accepted
immediately — the common case for well-provisioned fabrics costs one
round.  The fixed point of the iteration is the *flow-level* max-min
fair allocation over the cut links, the same allocation the unsharded
kernel computes, which is what the 1e-6 differential suite checks.

**Determinism.**  The cell — not the shard — is the unit of
simulation: cell *i* always runs in its own context seeded
``cell_seed(seed, i)``, whatever shard slice it lands in, and the
coordinator's arithmetic is over deterministically ordered arrays.
Results are therefore byte-identical across worker counts *and* shard
counts; only wall-clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import metrics
from repro.exec import SimTask, run_tasks
from repro.faults.plan import FaultPlan, scoped_plan
from repro.net.link import CutLinkStub
from repro.sim.context import Context

__all__ = [
    "BoundaryLink",
    "BoundaryPort",
    "ShardStats",
    "cell_seed",
    "run_sharded",
    "run_unsharded",
    "slice_cells",
]

#: Relative slack treated as saturation when classifying stub epochs.
_SAT_EPS = 1e-9

#: Grant floor as a fraction of ``capacity / n_cells`` — keeps a cell
#: that reported zero demand from being starved into a zero-capacity
#: stub it could never report demand through again.
_GRANT_FLOOR = 1e-3


@dataclass(frozen=True)
class BoundaryLink:
    """One cut link: a WAN/aggregation hop shared by every cell."""

    name: str
    #: Usable rate in bytes/second (per direction; cells see egress).
    capacity: float


#: Process-wide exchange counters (the ``shard`` registry layer).
_TOTALS = metrics.counters("shard", runs=0, rounds=0, cells_run=0,
                           early_accepts=0, unconverged=0)


class ShardStats:
    """Process-wide exchange counters (report footers, tests)."""

    @staticmethod
    def process_totals() -> dict:
        """The ``shard`` registry layer as a plain dict."""
        return dict(_TOTALS)


def cell_seed(seed: int, cell: int) -> int:
    """The derived root seed of cell *cell* (same recipe as ``RngRegistry.fork``)."""
    return (seed * 1_000_003 + cell + 1) % (2 ** 63)


def slice_cells(n_cells: int, n_shards: int) -> List[List[int]]:
    """Partition ``range(n_cells)`` into ``n_shards`` balanced contiguous slices."""
    n_shards = max(1, min(n_shards, n_cells))
    base, extra = divmod(n_cells, n_shards)
    slices, start = [], 0
    for s in range(n_shards):
        width = base + (1 if s < extra else 0)
        slices.append(list(range(start, start + width)))
        start += width
    return slices


class _Acc:
    """A per-flow byte accumulator usable as a fluid charge account."""

    __slots__ = ("total", "snap")

    def __init__(self) -> None:
        self.total = 0.0
        self.snap = 0.0

    def add(self, amount: float) -> None:
        self.total += amount


class BoundaryPort:
    """A cell's attachment to one cut link.

    In **sharded** mode the port owns a :class:`CutLinkStub` whose
    capacity follows the cell's per-epoch grant series; in
    **unsharded** mode (``grants=None``) it wraps the shared real
    resource.  Either way, :meth:`flow_leg` hands builders the path
    element and charge pair a cross-boundary flow must carry, so cell
    models are written once and run identically under both modes.
    """

    def __init__(self, ctx: Context, boundary: BoundaryLink,
                 grants: Optional[Sequence[float]] = None,
                 epoch_dt: float = 1.0,
                 shared_resource=None):
        self.ctx = ctx
        self.boundary = boundary
        self.epoch_dt = float(epoch_dt)
        self._accounts: List[tuple[_Acc, Optional[float]]] = []
        self._epoch_flows: List[List[List[float]]] = []
        self._epoch_saturated: List[bool] = []
        self._grants = None if grants is None else [float(g) for g in grants]
        if grants is None:
            if shared_resource is None:
                raise ValueError("unsharded port needs the shared resource")
            self.stub = None
            self.resource = shared_resource
        else:
            self.stub = CutLinkStub(ctx, f"{boundary.name}/cut",
                                    self._grants[0])
            self.resource = self.stub.resource
            if len(self._grants) > 1:
                ctx.sim.process(self._ticker(), name=f"{boundary.name}/epochs")

    # -- builder API -------------------------------------------------------
    def flow_leg(self, cap: Optional[float] = None):
        """Path element + charge pair for one cross-boundary flow.

        *cap* is the flow's own rate cap, if any — used to tell a flow
        pinned at its cap apart from one starved by the stub when the
        stub saturates (only the latter is *hungry* at the exchange).
        """
        acc = _Acc()
        self._accounts.append((acc, cap))
        return [(self.resource, 1.0)], [(acc, 1.0)]

    # -- epoch bookkeeping (sharded mode) ----------------------------------
    def _harvest(self, grant: float) -> None:
        # Charges are debited lazily; close the accounting up to *now*
        # before reading the per-flow accumulators.
        self.ctx.fluid.settle()
        dt = self.epoch_dt
        rows: List[List[float]] = []
        total = 0.0
        for acc, cap in self._accounts:
            delta = acc.total - acc.snap
            acc.snap = acc.total
            if delta <= 0.0:
                continue
            total += delta
            pinned = 1.0 if (cap is not None
                             and delta >= cap * dt * (1.0 - _SAT_EPS)) else 0.0
            rows.append([delta / dt, pinned])
        self._epoch_flows.append(rows)
        self._epoch_saturated.append(total >= grant * dt * (1.0 - _SAT_EPS))

    def _ticker(self):
        sim = self.ctx.sim
        grants = self._grants
        for e in range(1, len(grants)):
            yield sim.timeout_at(e * self.epoch_dt)
            self._harvest(grants[e - 1])
            # Under churn coalescing every stub re-granted at this epoch
            # instant (and any same-instant job churn) shares a single
            # deferred rebalance, flushed before the clock advances.
            self.stub.set_capacity(grants[e])

    def finalize(self) -> None:
        """Close the last epoch (call after the cell's run returns)."""
        if self._grants is not None:
            self._harvest(self._grants[-1])

    def demand(self) -> dict:
        """The cell's per-epoch demand report for the coordinator."""
        return {"flows": self._epoch_flows,
                "saturated": [bool(s) for s in self._epoch_saturated]}

    @property
    def transferred(self) -> float:
        """Total bytes this cell moved across the boundary."""
        return sum(acc.total for acc, _cap in self._accounts)


# -- cell-slice task target ------------------------------------------------

def run_cell_slice(*, seed: int, cal, target: str, cells: Sequence[int],
                   horizon: float, epoch_dt: float,
                   boundaries: Sequence[Sequence],
                   grants: Dict[str, Dict[str, Sequence[float]]],
                   params: Dict[str, Any]) -> List[dict]:
    """Run one shard slice: each cell in its own context, sequentially.

    ``grants[boundary][str(cell)]`` is the per-epoch capacity series
    granted to *cell* on *boundary*.  The cell target (an importable
    ``"module:function"``) is called as ``fn(ctx=, cell=, ports=,
    horizon=, **params)`` and must return a ``finish()`` callable
    producing the cell's ledger.  Returns one
    ``{"ledger", "demand"}`` record per cell, in *cells* order.
    """
    fn = SimTask(target).resolve()
    blinks = [BoundaryLink(str(name), float(cap)) for name, cap in boundaries]
    out: List[dict] = []
    for cell in cells:
        ctx = Context.create(seed=cell_seed(seed, cell), cal=cal)
        ports = {
            b.name: BoundaryPort(ctx, b, grants=grants[b.name][str(cell)],
                                 epoch_dt=epoch_dt)
            for b in blinks
        }
        finish = fn(ctx=ctx, cell=cell, ports=ports, horizon=horizon, **params)
        ctx.sim.run(until=horizon)
        for port in ports.values():
            port.finalize()
        out.append({
            "ledger": finish(),
            "demand": {name: port.demand() for name, port in ports.items()},
        })
    return out


# -- the coordinator -------------------------------------------------------

def _waterfill(capacity: float, wants: np.ndarray) -> np.ndarray:
    """Max-min fair shares of *capacity* over *wants* (inf = hungry)."""
    n = wants.size
    shares = np.empty(n)
    order = np.argsort(wants, kind="stable")
    remaining = float(capacity)
    left = n
    for idx in order:
        level = remaining / left
        share = wants[idx] if wants[idx] < level else level
        shares[idx] = share
        remaining -= share
        left -= 1
    return shares


def _next_grants(boundary: BoundaryLink, n_cells: int, n_epochs: int,
                 demands: List[dict]) -> np.ndarray:
    """One boundary's next grant matrix ``(n_cells, n_epochs)``."""
    cap = boundary.capacity
    grants = np.empty((n_cells, n_epochs))
    floor = _GRANT_FLOOR * cap / max(1, n_cells)
    for e in range(n_epochs):
        wants: List[float] = []
        owner: List[int] = []
        for c in range(n_cells):
            rows = demands[c]["flows"][e]
            hungry = demands[c]["saturated"][e]
            for rate, pinned in rows:
                wants.append(np.inf if hungry and not pinned else rate)
                owner.append(c)
        if not wants:
            grants[:, e] = cap / n_cells
            continue
        shares = _waterfill(cap, np.asarray(wants))
        per_cell = np.zeros(n_cells)
        np.add.at(per_cell, owner, shares)
        slack = max(0.0, cap - float(shares.sum()))
        grants[:, e] = np.maximum(per_cell + slack / n_cells, floor)
    return grants


def _oversubscribed(boundary: BoundaryLink, demands: List[dict],
                    n_epochs: int, tol: float) -> bool:
    """Whether round 0 showed any epoch contending for *boundary*."""
    for e in range(n_epochs):
        total = 0.0
        for d in demands:
            if d["saturated"][e]:
                return True
            total += sum(rate for rate, _p in d["flows"][e])
        if total > boundary.capacity * (1.0 - tol):
            return True
    return False


def run_sharded(*, target: str, n_cells: int,
                boundaries: Sequence[BoundaryLink], horizon: float,
                epoch_dt: float, params: Optional[Dict[str, Any]] = None,
                seed: int = 0, cal=None, n_shards: int = 0,
                tol: float = 1e-9, max_rounds: int = 6,
                fixed_rounds: int = 0, faults: Optional[FaultPlan] = None) -> dict:
    """Run *n_cells* cells of *target* under the boundary-exchange protocol.

    ``n_shards=0`` slices one shard per ambient worker.  ``tol`` /
    ``max_rounds`` control the epsilon-converged iteration;
    ``fixed_rounds > 0`` instead runs exactly that many rounds
    (deterministic fixed-round mode).  Every cell arms *faults* (None:
    the run-wide plan), carried by its shard task.  The result —
    ``{"cells": [ledger...], "exchange": {...}}`` — is byte-identical
    whatever the worker or shard count.
    """
    from repro.exec.runner import get_exec_context

    if horizon <= 0 or epoch_dt <= 0:
        raise ValueError("horizon and epoch_dt must be > 0")
    n_epochs = max(1, int(round(horizon / epoch_dt)))
    if abs(n_epochs * epoch_dt - horizon) > 1e-9 * horizon:
        raise ValueError(
            f"horizon {horizon} must be a whole number of epochs of {epoch_dt}")
    params = dict(params or {})
    blist = list(boundaries)
    bnames = [b.name for b in blist]
    if len(set(bnames)) != len(bnames):
        raise ValueError("boundary names must be unique")
    if n_shards <= 0:
        n_shards = get_exec_context().effective_jobs
    slices = slice_cells(n_cells, n_shards)
    faults = faults if faults is not None else scoped_plan()

    # Round 0: optimistic grants — every cell may burst to the full link.
    grants = {b.name: np.full((n_cells, n_epochs), b.capacity)
              for b in blist}

    def _round(tag: str) -> List[dict]:
        tasks = [
            SimTask(
                "repro.sim.shard:run_cell_slice",
                {
                    "target": target,
                    "cells": cells,
                    "horizon": horizon,
                    "epoch_dt": epoch_dt,
                    "boundaries": [[b.name, b.capacity] for b in blist],
                    "grants": {
                        b.name: {str(c): list(grants[b.name][c])
                                 for c in cells}
                        for b in blist
                    },
                    "params": params,
                },
                seed=seed, cal=cal, faults=faults,
                label=f"shard/{tag}/cells{cells[0]}-{cells[-1]}",
            )
            for cells in slices
        ]
        merged: List[dict] = []
        for piece in run_tasks(tasks):
            merged.extend(piece)
        return merged

    rounds_wanted = fixed_rounds if fixed_rounds > 0 else max_rounds
    results = _round("r0")
    rounds_run = 1
    early = False
    converged = False
    if fixed_rounds <= 0:
        demands_by_b = {
            b.name: [r["demand"][b.name] for r in results] for b in blist}
        if not any(_oversubscribed(b, demands_by_b[b.name], n_epochs, tol)
                   for b in blist):
            early = converged = True
    while not converged and rounds_run < rounds_wanted:
        new = {b.name: _next_grants(b, n_cells, n_epochs,
                                    [r["demand"][b.name] for r in results])
               for b in blist}
        if rounds_run >= 3:
            # Damp late rounds: a 2-cycle between two grant matrices
            # otherwise never meets the epsilon test.
            new = {name: 0.5 * (new[name] + grants[name]) for name in new}
        if fixed_rounds <= 0:
            drift = max(
                float(np.max(np.abs(new[b.name] - grants[b.name]))) / b.capacity
                for b in blist)
            if drift <= tol:
                converged = True
                break
        grants = new
        results = _round(f"r{rounds_run}")
        rounds_run += 1
    if fixed_rounds > 0:
        converged = True

    exchange = {
        "mode": "sharded",
        "rounds": rounds_run,
        "early_accept": early,
        "converged": converged,
        "n_cells": n_cells,
        "n_shards": len(slices),
        "n_epochs": n_epochs,
        "boundaries": {
            b.name: {
                "capacity": b.capacity,
                "bytes": float(sum(
                    sum(rate for rate, _p in r["demand"][b.name]["flows"][e])
                    for r in results for e in range(n_epochs)) * epoch_dt),
            }
            for b in blist
        },
    }
    for name, row in exchange["boundaries"].items():
        row["utilization"] = row["bytes"] / (
            exchange["boundaries"][name]["capacity"] * horizon)
    _TOTALS["runs"] += 1
    _TOTALS["rounds"] += rounds_run
    _TOTALS["cells_run"] += rounds_run * n_cells
    _TOTALS["early_accepts"] += early
    _TOTALS["unconverged"] += not converged
    return {"cells": [r["ledger"] for r in results], "exchange": exchange}


def run_unsharded(*, target: str, n_cells: int,
                  boundaries: Sequence[BoundaryLink], horizon: float,
                  epoch_dt: float, params: Optional[Dict[str, Any]] = None,
                  seed: int = 0, cal=None, faults: Optional[FaultPlan] = None) -> dict:
    """The reference: every cell in **one** shared event simulation,
    armed with *faults* (None: the run-wide plan).

    Cut links are ordinary shared fluid resources, so the kernel
    computes the global flow-level max-min allocation directly.  Each
    cell still draws from its own registry seeded ``cell_seed(seed,
    cell)`` — the same streams as the sharded run — so the two modes
    see identical workloads and differ only in how boundary bandwidth
    is arbitrated.
    """
    from repro.sim.fluid import FluidResource

    params = dict(params or {})
    fn = SimTask(target).resolve()
    base = Context.create(seed=seed, cal=cal, faults=faults)
    blist = list(boundaries)
    shared = {}
    for b in blist:
        res = FluidResource(base.fluid, b.capacity, b.name)
        res.kind = "link"  # type: ignore[attr-defined]
        shared[b.name] = res
    finishers: List[Callable[[], dict]] = []
    cell_ports: List[Dict[str, BoundaryPort]] = []
    for cell in range(n_cells):
        from repro.sim.rng import RngRegistry

        ctx = Context(sim=base.sim, fluid=base.fluid,
                      rng=RngRegistry(cell_seed(seed, cell)),
                      trace=base.trace, cal=base.cal, faults=base.faults,
                      rkeys=base.rkeys)
        ports = {
            b.name: BoundaryPort(ctx, b, grants=None, epoch_dt=epoch_dt,
                                 shared_resource=shared[b.name])
            for b in blist
        }
        finishers.append(
            fn(ctx=ctx, cell=cell, ports=ports, horizon=horizon, **params))
        cell_ports.append(ports)
    base.sim.run(until=horizon)
    # flush(): settle progress *and* apply any coalesced rebalance so
    # the finishers read fully settled rates and accumulators.
    base.fluid.flush()
    ledgers = [finish() for finish in finishers]
    exchange = {
        "mode": "unsharded",
        "rounds": 1,
        "early_accept": False,
        "converged": True,
        "n_cells": n_cells,
        "n_shards": 1,
        "n_epochs": max(1, int(round(horizon / epoch_dt))),
        "boundaries": {
            b.name: {
                "capacity": b.capacity,
                "bytes": float(sum(p[b.name].transferred
                                   for p in cell_ports)),
                "utilization": float(sum(p[b.name].transferred
                                         for p in cell_ports))
                / (b.capacity * horizon),
            }
            for b in blist
        },
    }
    return {"cells": ledgers, "exchange": exchange}


# -- reference cell model (docs, protocol tests, microbenchmarks) ----------

def demo_cell(*, ctx: Context, cell: int, ports: Dict[str, BoundaryPort],
              horizon: float, n_local: int = 2, local_rate: float = 100e6,
              cross_rate: Optional[float] = None, cross_skew: float = 0.0,
              boundary: str = "wan0"):
    """A minimal cell: *n_local* private flows + one cross-boundary flow.

    The cross flow's own cap is ``cross_rate * (1 + cross_skew * cell)``
    (None = uncapped), giving tests an asymmetric-demand knob.  Ledger:
    per-flow transferred bytes.
    """
    from repro.sim.fluid import FluidFlow, FluidResource

    local_res = FluidResource(ctx.fluid, local_rate, f"cell{cell}/local")
    locals_ = []
    for i in range(n_local):
        flow = FluidFlow([(local_res, 1.0)], size=None,
                         name=f"cell{cell}/l{i}")
        locals_.append(flow)
        ctx.fluid.start(flow)
    cap = (None if cross_rate is None
           else cross_rate * (1.0 + cross_skew * cell))
    path, charges = ports[boundary].flow_leg(cap=cap)
    cross = FluidFlow(path, size=None, cap=cap, charges=charges,
                      name=f"cell{cell}/x")
    ctx.fluid.start(cross)

    def finish() -> dict:
        # Bulk drain: one settle covers every still-open flow (identical
        # to stopping them one by one, but a single coalesced rebalance).
        ctx.fluid.finish_many(
            [f for f in locals_ + [cross] if f._active])
        return {
            "cell": cell,
            "local_bytes": [f.transferred for f in locals_],
            "cross_bytes": cross.transferred,
        }

    return finish
