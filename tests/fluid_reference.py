"""Textbook max-min fairness: the oracle the fluid kernel is checked against.

:func:`maxmin` computes the max-min fair allocation with per-flow rate
caps by plain progressive filling, from scratch on every call: grow
every unfrozen flow's rate by the largest uniform increment no resource
or cap allows to be exceeded, freeze the flows that hit their cap or sit
on a saturated resource, repeat.  It deliberately shares nothing with
:mod:`repro.sim.fluid` — no incremental dirty sets, no connected
components, no folding of single-user resources into caps, no cached
fill inputs — so agreement with the production kernel is evidence,
not tautology.  The allocation is unique, so any correct solver must
match it up to the freeze tolerance.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, Optional, Sequence, Tuple

#: Relative freeze tolerance (a flow within this of its cap, or a
#: resource within this of full, counts as frozen).
EPS = 1e-9

#: One flow: ``({resource: weight}, cap or None)``.
Flow = Tuple[Mapping[Hashable, float], Optional[float]]


def maxmin(flows: Sequence[Flow],
           capacity: Mapping[Hashable, float]) -> list[float]:
    """Max-min fair rates for *flows* over resources of *capacity*."""
    rate = [0.0] * len(flows)
    unfrozen = set(range(len(flows)))
    residual = {r: capacity[r] for path, _cap in flows for r in path}
    while unfrozen:
        load = dict.fromkeys(residual, 0.0)
        for i in unfrozen:
            for r, w in flows[i][0].items():
                load[r] += w
        delta = math.inf
        for r, w in load.items():
            if w > 0.0 and math.isfinite(residual[r]):
                delta = min(delta, max(residual[r], 0.0) / w)
        for i in unfrozen:
            cap = flows[i][1]
            if cap is not None:
                delta = min(delta, cap - rate[i])
        if not math.isfinite(delta):
            raise ValueError(f"unbounded flows: {sorted(unfrozen)}")
        delta = max(delta, 0.0)
        for i in unfrozen:
            rate[i] += delta
        for r, w in load.items():
            residual[r] -= delta * w
        saturated = {r for r, rest in residual.items()
                     if load[r] > 0.0 and math.isfinite(rest)
                     and rest <= EPS * max(1.0, capacity[r])}
        frozen = {i for i in unfrozen
                  if (flows[i][1] is not None
                      and rate[i] >= flows[i][1] - EPS * max(1.0, flows[i][1]))
                  or saturated.intersection(flows[i][0])}
        unfrozen -= frozen or unfrozen
    return rate
