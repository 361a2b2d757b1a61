"""Topology-sharded parallel simulation with boundary-flow exchange.

A fabric of hundreds of hosts cannot run as one event simulation in
reasonable wall-clock time: one shared WAN resource merges every pod's
flows into a single fluid component, so every job start/stop rebalances
the whole fleet.  This module partitions the topology into **cells**
(pods): each cell keeps its hosts' NUMA-local rails, NICs and links
intact inside one private :class:`~repro.sim.context.Context`, and the
fabric is cut only along WAN/aggregation links — the
:class:`BoundaryLink` set.  Each exchange round runs every cell in the
calling process, one after another; a leg that wants process-level
parallelism is itself one task on the :mod:`repro.exec` pool.

**Boundary protocol.**  The simulated horizon is split into fixed
epochs.  Every cell crosses exactly one cut link, given per cell by
the ``links`` list.  Inside the cell that link is a private fluid
resource whose per-epoch capacity is the cell's granted share of the
real link, reached through the cell's one :class:`BoundaryPort`.
Cross-boundary flows traverse it and carry a per-flow charge account,
so the cell records, per epoch, each flow's exact byte count (charges
are debited by the fluid scheduler itself, so flows that start *and*
finish inside one epoch are still accounted).  Rounds iterate
waveform-relaxation style:

1. round 0 runs every cell with optimistic grants (its full link);
2. the coordinator water-fills each ``(link, epoch)`` over the
   per-flow demands its member cells reported — a flow on a saturated
   port that is not pinned at its own rate cap counts as *hungry*
   (unbounded want) — and grants each member the sum of its flows'
   shares plus ``1/n_cells`` of any slack (``n_cells`` counting every
   cell, not only the members);
3. cells re-run under the new grant series until the grant matrix is
   stable within ``_TOL`` (epsilon mode, at most ``_MAX_ROUNDS``
   rounds) or for a fixed round count.

If round 0 shows every link unsaturated, it is accepted
immediately — the common case for well-provisioned fabrics costs one
round.  The fixed point of the iteration is the *flow-level* max-min
fair allocation over the cut links, the same allocation the unsharded
kernel computes, which is what the 1e-6 differential suite checks.

**Determinism.**  The cell is the unit of simulation: cell *i* always
runs in its own context seeded ``cell_seed(seed, i)``, and the
coordinator's arithmetic is over deterministically ordered arrays.
Results are therefore byte-identical across worker counts and reruns;
only wall-clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import metrics
from repro.exec import SimTask
from repro.faults.plan import FaultPlan
from repro.sim.context import Context
from repro.sim.fluid import FluidResource

__all__ = [
    "BoundaryLink",
    "BoundaryPort",
    "ShardStats",
    "cell_seed",
    "run_sharded",
    "run_unsharded",
]

#: Relative slack treated as saturation when classifying port epochs.
_SAT_EPS = 1e-9

#: Epsilon mode: the grant drift (relative to link capacity) that counts
#: as converged, and the round budget.
_TOL = 1e-9
_MAX_ROUNDS = 6

#: Grant floor as a fraction of ``capacity / n_cells`` — keeps a cell
#: that reported zero demand from being starved into a zero-capacity
#: port it could never report demand through again.
_GRANT_FLOOR = 1e-3


@dataclass(frozen=True)
class BoundaryLink:
    """One cut link: a WAN/aggregation hop shared by the cells crossing it."""

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


class _Acc:
    """A per-flow byte accumulator usable as a fluid charge account."""

    __slots__ = ("total", "snap")

    def __init__(self) -> None:
        self.total = 0.0
        self.snap = 0.0

    def add(self, amount: float) -> None:
        self.total += amount


class BoundaryPort:
    """A cell's attachment to the one cut link it crosses.

    *resource* is the fluid resource cross-boundary flows traverse.  In
    **sharded** mode it is the cell's private stand-in for the link and
    the port steps its capacity through the cell's per-epoch *grants*;
    in **unsharded** mode (``grants=None``) it is the shared real link.
    Either way, :meth:`flow_leg` hands builders the path element and
    charge pair a cross-boundary flow must carry, so cell models are
    written once and run identically under both modes.
    """

    def __init__(self, ctx: Context, resource: FluidResource,
                 grants: Optional[Sequence[float]] = None,
                 epoch_dt: float = 1.0):
        self.ctx = ctx
        self.resource = resource
        self.epoch_dt = float(epoch_dt)
        self._accounts: List[tuple[_Acc, Optional[float]]] = []
        self._epoch_flows: List[List[List[float]]] = []
        self._epoch_saturated: List[bool] = []
        self._grants = None if grants is None else [float(g) for g in grants]
        if self._grants is not None and len(self._grants) > 1:
            ctx.sim.process(self._ticker(), name=f"{resource.name}/epochs")

    # -- builder API -------------------------------------------------------
    def flow_leg(self, cap: Optional[float] = None):
        """Path element + charge pair for one cross-boundary flow.

        *cap* is the flow's own rate cap, if any — used to tell a flow
        pinned at its cap apart from one starved by its grant when the
        port saturates (only the latter is *hungry* at the exchange).
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
            # Under churn coalescing the re-grant (and any same-instant
            # job churn) shares a single deferred rebalance, flushed
            # before the clock advances.
            self.resource.set_capacity(grants[e])

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


def _link_resource(fluid, capacity: float, name: str) -> FluidResource:
    """A fluid resource standing for a cut link, tagged like a real link
    direction so loss-capable bottleneck classification is unchanged."""
    res = FluidResource(fluid, capacity, name)
    res.kind = "link"  # type: ignore[attr-defined]
    return res


def _cut_set(links: Sequence[BoundaryLink]) -> Dict[BoundaryLink, List[int]]:
    """The distinct links of *links* in cell order, each with its cells."""
    members: Dict[BoundaryLink, List[int]] = {}
    for cell, link in enumerate(links):
        members.setdefault(link, []).append(cell)
    names = [b.name for b in members]
    if len(set(names)) != len(names):
        raise ValueError("boundary names must be unique")
    return members


# -- one exchange round ----------------------------------------------------

def run_cell_slice(*, seed: int, cal, target: str, cells: Sequence[Sequence],
                   horizon: float, epoch_dt: float, params: Dict[str, Any],
                   faults: Optional[FaultPlan]) -> List[dict]:
    """Run one exchange round: each cell in its own context, sequentially.

    Each entry of *cells* is ``[cell, link name, grant series]``: the
    cell, the cut link it crosses and the per-epoch capacity granted to
    it there.  Every cell's context arms *faults* (None: the run-wide
    plan).  The cell target (an importable ``"module:function"``) is
    called as ``fn(ctx=, cell=, port=, horizon=, **params)`` and must
    return a ``finish()`` callable producing the cell's ledger.
    Returns one ``{"ledger", "demand"}`` record per cell, in *cells*
    order.
    """
    fn = SimTask(target).resolve()
    out: List[dict] = []
    for cell, name, grants in cells:
        ctx = Context.create(seed=cell_seed(seed, cell), cal=cal,
                             faults=faults)
        port = BoundaryPort(
            ctx, _link_resource(ctx.fluid, grants[0], f"{name}/cut"),
            grants=grants, epoch_dt=epoch_dt)
        finish = fn(ctx=ctx, cell=cell, port=port, horizon=horizon, **params)
        ctx.sim.run(until=horizon)
        port.finalize()
        out.append({"ledger": finish(), "demand": port.demand()})
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


def _next_grants(link: BoundaryLink, cells: List[int], demands: List[dict],
                 grants: np.ndarray) -> None:
    """Water-fill *link* over its member *cells*' demands, writing their
    rows of the next ``(n_cells, n_epochs)`` grant matrix *grants*.

    Slack and the floor are split over **all** cells, not the members.
    """
    n_cells, n_epochs = grants.shape
    cap = link.capacity
    floor = _GRANT_FLOOR * cap / n_cells
    for e in range(n_epochs):
        wants: List[float] = []
        owner: List[int] = []
        for i, c in enumerate(cells):
            hungry = demands[c]["saturated"][e]
            for rate, pinned in demands[c]["flows"][e]:
                wants.append(np.inf if hungry and not pinned else rate)
                owner.append(i)
        if not wants:
            grants[cells, e] = cap / n_cells
            continue
        shares = _waterfill(cap, np.asarray(wants))
        per_cell = np.zeros(len(cells))
        np.add.at(per_cell, owner, shares)
        slack = max(0.0, cap - float(shares.sum()))
        grants[cells, e] = np.maximum(per_cell + slack / n_cells, floor)


def _oversubscribed(link: BoundaryLink, demands: List[dict],
                    n_epochs: int) -> bool:
    """Whether round 0 showed any epoch contending for *link*, given
    its member cells' *demands*."""
    for e in range(n_epochs):
        total = 0.0
        for d in demands:
            if d["saturated"][e]:
                return True
            total += sum(rate for rate, _p in d["flows"][e])
        if total > link.capacity * (1.0 - _TOL):
            return True
    return False


def run_sharded(*, target: str, links: Sequence[BoundaryLink],
                horizon: float, epoch_dt: float,
                params: Optional[Dict[str, Any]] = None,
                seed: int = 0, cal=None, fixed_rounds: int = 0,
                faults: Optional[FaultPlan] = None) -> dict:
    """Run one cell of *target* per entry of *links* under the
    boundary-exchange protocol; cell *i* crosses ``links[i]``.

    Every round runs all cells in this process (:func:`run_cell_slice`).
    By default the iteration runs until the grants are stable within
    ``_TOL``, for at most ``_MAX_ROUNDS`` rounds; ``fixed_rounds > 0``
    instead runs exactly that many rounds (deterministic fixed-round
    mode).  Every cell arms *faults* (None: the run-wide plan).  The
    result — ``{"cells": [ledger...], "exchange": {...}}`` — is
    byte-identical whatever the worker count.
    """
    if horizon <= 0 or epoch_dt <= 0:
        raise ValueError("horizon and epoch_dt must be > 0")
    n_epochs = max(1, int(round(horizon / epoch_dt)))
    if abs(n_epochs * epoch_dt - horizon) > 1e-9 * horizon:
        raise ValueError(
            f"horizon {horizon} must be a whole number of epochs of {epoch_dt}")
    params = dict(params or {})
    links = list(links)
    cut = _cut_set(links)
    n_cells = len(links)

    # Round 0: optimistic grants — every cell may burst to its full link.
    caps = np.array([b.capacity for b in links], dtype=float)
    grants = np.repeat(caps[:, None], n_epochs, axis=1)

    def _round() -> tuple[List[dict], List[dict]]:
        # A module-global call, so a wrapper installed on
        # ``repro.sim.shard.run_cell_slice`` sees every round.
        merged = run_cell_slice(
            seed=seed, cal=cal, target=target,
            cells=[[c, links[c].name, grants[c].tolist()]
                   for c in range(n_cells)],
            horizon=horizon, epoch_dt=epoch_dt, params=params,
            faults=faults)
        return [r["demand"] for r in merged], [r["ledger"] for r in merged]

    rounds_wanted = fixed_rounds if fixed_rounds > 0 else _MAX_ROUNDS
    demands, ledgers = _round()
    rounds_run = 1
    early = False
    converged = False
    if fixed_rounds <= 0 and not any(
            _oversubscribed(b, [demands[c] for c in cells], n_epochs)
            for b, cells in cut.items()):
        early = converged = True
    while not converged and rounds_run < rounds_wanted:
        new = np.empty_like(grants)
        for b, cells in cut.items():
            _next_grants(b, cells, demands, new)
        if rounds_run >= 3:
            # Damp late rounds: a 2-cycle between two grant matrices
            # otherwise never meets the epsilon test.
            new = 0.5 * (new + grants)
        if fixed_rounds <= 0:
            drift = float(np.max(np.abs(new - grants) / caps[:, None]))
            if drift <= _TOL:
                converged = True
                break
        grants = new
        demands, ledgers = _round()
        rounds_run += 1
    if fixed_rounds > 0:
        converged = True

    boundaries = {}
    for b, cells in cut.items():
        moved = float(sum(
            sum(rate for rate, _p in demands[c]["flows"][e])
            for c in cells for e in range(n_epochs)) * epoch_dt)
        boundaries[b.name] = {"capacity": b.capacity, "bytes": moved,
                              "utilization": moved / (b.capacity * horizon)}
    exchange = {
        "mode": "sharded",
        "rounds": rounds_run,
        "early_accept": early,
        "converged": converged,
        "n_cells": n_cells,
        "n_epochs": n_epochs,
        "boundaries": boundaries,
    }
    _TOTALS["runs"] += 1
    _TOTALS["rounds"] += rounds_run
    _TOTALS["cells_run"] += rounds_run * n_cells
    _TOTALS["early_accepts"] += early
    _TOTALS["unconverged"] += not converged
    return {"cells": ledgers, "exchange": exchange}


def run_unsharded(*, target: str, links: Sequence[BoundaryLink],
                  horizon: float, epoch_dt: float,
                  params: Optional[Dict[str, Any]] = None,
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
    from repro.sim.rng import RngRegistry

    params = dict(params or {})
    fn = SimTask(target).resolve()
    base = Context.create(seed=seed, cal=cal, faults=faults)
    cut = _cut_set(links)
    shared = {b: _link_resource(base.fluid, b.capacity, b.name) for b in cut}
    finishers: List[Callable[[], dict]] = []
    ports: List[BoundaryPort] = []
    for cell, link in enumerate(links):
        ctx = Context(sim=base.sim, fluid=base.fluid,
                      rng=RngRegistry(cell_seed(seed, cell)),
                      trace=base.trace, cal=base.cal, faults=base.faults,
                      rkeys=base.rkeys)
        port = BoundaryPort(ctx, shared[link])
        finishers.append(
            fn(ctx=ctx, cell=cell, port=port, horizon=horizon, **params))
        ports.append(port)
    base.sim.run(until=horizon)
    # flush(): settle progress *and* apply any coalesced rebalance so
    # the finishers read fully settled rates and accumulators.
    base.fluid.flush()
    ledgers = [finish() for finish in finishers]
    boundaries = {}
    for b, cells in cut.items():
        moved = float(sum(ports[c].transferred for c in cells))
        boundaries[b.name] = {"capacity": b.capacity, "bytes": moved,
                              "utilization": moved / (b.capacity * horizon)}
    exchange = {
        "mode": "unsharded",
        "rounds": 1,
        "early_accept": False,
        "converged": True,
        "n_cells": len(ports),
        "n_epochs": max(1, int(round(horizon / epoch_dt))),
        "boundaries": boundaries,
    }
    return {"cells": ledgers, "exchange": exchange}
