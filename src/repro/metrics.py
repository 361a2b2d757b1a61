"""One registry of process-wide counters, one live dict per layer.

Each layer (``fluid``, ``service``, ``faults``, ``sampler``, ``shard``,
``gang``, ``tcp``) registers its counters once with :func:`counters` and counts
into the returned dict in place, on its hot path::

    _TOTALS = metrics.counters("shard", runs=0, rounds=0)
    _TOTALS["rounds"] += n

An in-place dict increment is cheaper than rebinding a class attribute,
which also invalidates CPython's attribute caches for the class.  The
zero value a layer registers fixes each counter's type (``0`` or
``0.0``), and :func:`reset` keeps it.

Report footers and benchmarks read the registry as a delta around a
run: ``before = snapshot(); ...; delta(before)``.  The task runner
counts each task from a zeroed registry (a forked worker inherits the
parent's totals), returns the task's counts with its result and
merges them (:func:`merge`) in task order, so the totals count the
work of every worker process and add up the same at any worker count.
Counters are telemetry: nothing here feeds a result.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

__all__ = ["Counters", "counters", "delta", "merge", "reset", "snapshot"]

Number = Union[int, float]
Layers = Dict[str, Dict[str, Number]]

#: layer -> counter -> value; the dicts are the ones layers count into.
_LAYERS: Layers = {}


def counters(layer: str, **zeros: Number) -> Dict[str, Number]:
    """The live counter dict of *layer*, registering *zeros* on first use."""
    live = _LAYERS.setdefault(layer, {})
    for name, zero in zeros.items():
        live.setdefault(name, zero)
    return live


def snapshot() -> Layers:
    """A copy of every layer's counters."""
    return {layer: dict(live) for layer, live in _LAYERS.items()}


def delta(before: Layers) -> Layers:
    """Every counter's growth since *before* (a :func:`snapshot`)."""
    out: Layers = {}
    for layer, live in _LAYERS.items():
        old = before.get(layer, {})
        out[layer] = {name: value - old.get(name, 0)
                      for name, value in live.items()}
    return out


def merge(counts: Layers) -> None:
    """Add *counts* (a :func:`delta`, e.g. from a worker) in place."""
    for layer, values in counts.items():
        live = _LAYERS.setdefault(layer, {})
        for name, value in values.items():
            live[name] = live.get(name, 0) + value


def _zero(value: Number) -> Number:
    return 0.0 if isinstance(value, float) else 0


def reset() -> None:
    """Zero every counter in place, keeping its int or float type."""
    for live in _LAYERS.values():
        for name, value in live.items():
            live[name] = _zero(value)


class Counters:
    """Instance counters that also count into one registry layer.

    A subclass sets ``_totals`` to its layer (from :func:`counters`);
    each instance starts with one zeroed attribute per counter, and
    :meth:`count` adds to the attribute and to the layer together.
    """

    _totals: Dict[str, Number]

    def __init__(self) -> None:
        self.__dict__.update(
            (name, _zero(value)) for name, value in self._totals.items())

    def count(self, name: str, n: Number = 1, name2: Optional[str] = None,
              n2: Number = 0) -> None:
        """Add *n* to counter *name* (and *n2* to *name2*, for an event
        and its size in one call), here and in the registry."""
        counts, totals = self.__dict__, self._totals
        counts[name] += n
        totals[name] += n
        if name2 is not None:
            counts[name2] += n2
            totals[name2] += n2

    def as_dict(self) -> Dict[str, Number]:
        """The instance counters as a plain dict (for reports and JSON)."""
        return dict(self.__dict__)
