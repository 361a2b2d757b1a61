"""Per-layer self time, measured from outside the program.

:class:`Spans` accumulates one span per call into a wrapped entry point.
A span's *self time* is its duration minus the time of the spans nested
inside it, so the self times of all spans add up to exactly the time
covered by the outermost spans; whatever is left of a timed region is
unattributed.  Spans are aggregated as they close, in memory, keyed by
``(layer, parent layer)`` and by entry point:

* a *row* ``(layer, parent)`` counts calls, total (inclusive) seconds and
  self seconds; a span called from a span of the same layer is its own
  row, so nested same-layer calls are never counted twice in self time;
* an *entry* (one wrapped function) counts calls, total, self and
  *outer* seconds — the inclusive time of calls not nested in another
  call of the same entry point.

:func:`install` wraps the program's layer entry points at run time (a
class attribute or module attribute is replaced by a timing wrapper;
generator functions return a timing proxy) and returns a function that
puts the originals back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LAYER_NAMES", "Spans", "install"]

# (layer, target, attributes).  A target is "module:Class" (wrap methods
# in the class dict) or "module" (wrap module-level functions, looked up
# by callers at call time).  "*public" expands to every public function
# defined on the class itself; a "~" prefix marks a generator function,
# which is wrapped by a proxy that times each resumption.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("engine", "repro.sim.engine:Simulator", ("run",)),
    ("fluid", "repro.sim.fluid:FluidScheduler",
     ("*public", "_flush_pending", "_on_timer_event")),
    ("broker", "repro.service.broker:TransferBroker", ("*public", "_on_done")),
    ("scheduler", "repro.service.broker", ("pick_rail",)),
    ("workload", "repro.service.workload:WorkloadGenerator", ("~_run",)),
    ("fleet", "repro.service.fleet:RailFleet", ("__init__",)),
    ("shard", "repro.service.fabric", ("run_sharded",)),
    ("shard", "repro.sim.shard", ("run_cell_slice",)),
    ("qpool", "repro.rdma.qpool:QpPoolSet", ("acquire", "release")),
    ("exec", "repro.exec.cache:ResultCache", ("get", "put")),
    ("exec", "repro.exec.task:SimTask", ("execute",)),
    ("gang", "repro.exec.gang", ("calgrid_kernel",)),
    ("gang", "repro.core.sensitivity", ("gang_cells",)),
    ("sampler", "repro.sim.sampling:SamplerHub", ("*public",)),
    ("sampler", "repro.sim.sampling:Channel", ("*public",)),
)
#: Every layer name, including the experiments wrapped by default.
LAYER_NAMES = (*dict.fromkeys(layer for layer, _, _ in LAYERS), "experiments")


class Spans:
    """In-memory span accumulator (single-threaded, one per traced run)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Open spans, innermost last: ``[layer, child_seconds]``.
        self._stack: List[list] = []
        #: ``(layer, parent layer or None) -> [calls, total_s, self_s]``.
        self.rows: Dict[Tuple[str, Optional[str]], list] = {}
        #: ``entry name -> [calls, total_s, self_s, outer_s, depth]``.
        self.entries: Dict[str, list] = {}

    def _entry(self, name: str) -> list:
        entry = self.entries.get(name)
        if entry is None:
            entry = self.entries[name] = [0, 0.0, 0.0, 0.0, 0]
        return entry

    def timed(self, layer: str, name: str, call: Callable, *args, **kwargs):
        """Run ``call(*args, **kwargs)`` as one span of *layer*/*name*."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]
        entry = self._entry(name)
        entry[4] += 1
        stack.append(frame)
        t0 = self.clock()
        try:
            return call(*args, **kwargs)
        finally:
            dur = self.clock() - t0
            stack.pop()
            entry[4] -= 1
            own = dur - frame[1]
            if parent is not None:
                parent[1] += dur
            key = (layer, parent[0] if parent is not None else None)
            row = self.rows.get(key)
            if row is None:
                row = self.rows[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur
            row[2] += own
            entry[0] += 1
            entry[1] += dur
            entry[2] += own
            if entry[4] == 0:
                entry[3] += dur

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as a span."""
        timed = self.timed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed(layer, name, fn, *args, **kwargs)

        return traced

    def wrap_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        """Generator function *fn* whose every resumption is a span."""
        spans = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedGenerator(spans, layer, name, fn(*args, **kwargs))

        return traced

    # -- views ---------------------------------------------------------------
    def self_seconds(self) -> float:
        """Sum of self time over all spans (= time under outermost spans)."""
        return sum(row[2] for row in self.rows.values())

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``layer -> {"calls", "self_s"}`` summed over parents."""
        out: Dict[str, Dict[str, float]] = {}
        for (layer, _parent), (calls, _total, own) in self.rows.items():
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += calls
            agg["self_s"] += own
        return out

    def tree(self) -> List[Dict[str, Any]]:
        """Rows as plain dicts, largest self time first."""
        rows = [{"layer": layer, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": own}
                for (layer, parent), (calls, total, own) in self.rows.items()]
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def entry_table(self) -> Dict[str, Dict[str, float]]:
        """Per entry point: calls, total, self and outermost-call seconds."""
        return {name: {"calls": e[0], "total_s": e[1], "self_s": e[2],
                       "outer_s": e[3]}
                for name, e in sorted(self.entries.items())}


class _TracedGenerator:
    """Generator proxy: each ``send``/``throw`` is one span."""

    __slots__ = ("_spans", "_layer", "_name", "_gen", "__name__")

    def __init__(self, spans: Spans, layer: str, name: str, gen) -> None:
        self._spans = spans
        self._layer = layer
        self._name = name
        self._gen = gen
        self.__name__ = getattr(gen, "__name__", name)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._spans.timed(self._layer, self._name, self._gen.send, value)

    def throw(self, *exc):
        return self._spans.timed(self._layer, self._name, self._gen.throw, *exc)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _expand(owner, attrs: Tuple[str, ...]) -> List[str]:
    names: List[str] = []
    for attr in attrs:
        if attr == "*public":
            names += [n for n, v in vars(owner).items()
                      if not n.startswith("_") and callable(v)
                      and not isinstance(v, (staticmethod, classmethod))]
        else:
            names.append(attr)
    return names


def experiment_layers() -> tuple:
    """Every experiment module's ``run`` as an ``experiments`` span."""
    from repro.core import experiments as E

    return tuple(("experiments", module.__name__, ("run",))
                 for registry in (E.ALL_FIGURES, E.ALL_ABLATIONS,
                                  E.ALL_EXTENSIONS)
                 for module in registry.values())


def install(spans: Spans, layers=None) -> Callable[[], None]:
    """Wrap every entry point in *layers* (default: :data:`LAYERS` and
    every experiment's ``run``); returns the undo function."""
    if layers is None:
        layers = LAYERS + experiment_layers()
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for layer, target, attrs in layers:
            owner = _resolve(target)
            prefix = target.partition(":")[2] or target.rpartition(".")[2]
            for attr in _expand(owner, attrs):
                generator = attr.startswith("~")
                attr = attr.lstrip("~")
                original = vars(owner)[attr]
                name = f"{prefix}.{attr}"
                wrapped = (spans.wrap_generator(layer, name, original)
                           if generator else spans.wrap(layer, name, original))
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
    except BaseException:
        _restore(undo)
        raise
    return functools.partial(_restore, undo)


def _restore(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()
