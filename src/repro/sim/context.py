"""Simulation context: the bundle every model component is built against.

A :class:`Context` glues together the event engine, the fluid bandwidth
scheduler, the RNG registry, the trace log and the calibration constants.
Passing one object (instead of five) keeps constructor signatures sane and
guarantees all components of one experiment share a clock and a fair-share
domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, scoped_plan
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidScheduler
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.calibration import Calibration

__all__ = ["Context"]


@dataclass
class Context:
    """Shared simulation state for one experiment run."""

    sim: Simulator
    fluid: FluidScheduler
    rng: RngRegistry
    trace: TraceLog
    cal: "Calibration"
    #: Fault injector, when one is attached (see :mod:`repro.faults`).
    faults: Optional[Any] = None
    #: Per-context rkey registry: machine -> {id(pd): pd}.  Owned here so
    #: registrations never leak across contexts (ConnectionManager uses it).
    rkeys: Dict[Any, Dict[int, Any]] = field(default_factory=dict)

    @classmethod
    def create(cls, seed: int = 0, cal: "Calibration | None" = None,
               faults: FaultPlan | None = None) -> "Context":
        """Build a fresh context with its own clock and calibration.

        A :class:`~repro.faults.injector.FaultInjector` drives *faults*
        (None: the run-wide plan of the enclosing
        :func:`~repro.faults.plan.fault_scope`, if any).
        """
        from repro.core.calibration import CALIBRATION

        sim = Simulator()
        ctx = cls(
            sim=sim,
            fluid=FluidScheduler(sim),
            rng=RngRegistry(seed),
            trace=TraceLog(sim),
            cal=cal if cal is not None else CALIBRATION,
        )
        plan = faults if faults is not None else scoped_plan()
        if plan is not None and not plan.empty:
            FaultInjector(ctx, plan)
        return ctx

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.sim.now
