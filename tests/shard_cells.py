"""Cell targets for the sharded-runtime tests.

:func:`demo_cell` is the minimal cell model that
``repro.sim.shard.run_sharded`` and ``run_unsharded`` drive in the
protocol, determinism and runtime tests, named as the cell target
``tests.shard_cells:demo_cell`` (the runtime imports it by that name).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.context import Context
from repro.sim.fluid import FluidFlow, FluidResource
from repro.sim.shard import BoundaryPort


def demo_cell(*, ctx: Context, cell: int, port: BoundaryPort,
              horizon: float, n_local: int = 2, local_rate: float = 100e6,
              cross_rate: Optional[float] = None, cross_skew: float = 0.0):
    """A minimal cell: *n_local* private flows + one cross-boundary flow.

    The cross flow's own cap is ``cross_rate * (1 + cross_skew * cell)``
    (None = uncapped), giving tests an asymmetric-demand knob.  Ledger:
    per-flow transferred bytes.
    """
    local_res = FluidResource(ctx.fluid, local_rate, f"cell{cell}/local")
    locals_ = []
    for i in range(n_local):
        flow = FluidFlow([(local_res, 1.0)], size=None,
                         name=f"cell{cell}/l{i}")
        locals_.append(flow)
        ctx.fluid.start(flow)
    cap = (None if cross_rate is None
           else cross_rate * (1.0 + cross_skew * cell))
    path, charges = port.flow_leg(cap=cap)
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
