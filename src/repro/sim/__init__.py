"""Discrete-event + fluid-flow simulation kernel.

This subpackage is a from-scratch simulation engine in the style of SimPy,
extended with a *fluid max-min fair-share* layer (:mod:`repro.sim.fluid`)
used to model every throughput-limited resource in the system — network
links, PCIe slots, memory banks, inter-socket (QPI) links and CPU stages.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.engine.Process` / generator-based coroutines.
* :class:`~repro.sim.resources.Store` — a FIFO queue of objects (CQs,
  command queues).
* :class:`~repro.sim.fluid.FluidResource`, :class:`~repro.sim.fluid.FluidScheduler`
  — bandwidth sharing.
* :class:`~repro.sim.trace.ThroughputProbe`, :class:`~repro.sim.trace.TimeSeries`
  — measurement.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimStats,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.fluid import FluidFlow, FluidResource, FluidScheduler, FluidStats
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry
from repro.sim.sampling import SamplerHub, hub_for
from repro.sim.trace import ThroughputProbe, TimeSeries, TraceLog

__all__ = [
    "Simulator",
    "SimStats",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Store",
    "FluidResource",
    "FluidFlow",
    "FluidScheduler",
    "FluidStats",
    "SamplerHub",
    "hub_for",
    "RngRegistry",
    "TimeSeries",
    "ThroughputProbe",
    "TraceLog",
]
