"""Gang execution: run a grid of scenario tasks as one batched program.

Dense sweeps — the ±20% sensitivity grid, calibration sweeps over an
ablation leg, protocol-knob cross-products — are hundreds of
*structurally identical* simulations that differ only along a scenario
axis (usually the calibration).  Running them one interpreter-driven
event loop at a time repeats work that is provably shared.  This module
lets planners opt a :class:`~repro.exec.task.SimTask` into **gang
execution**: tasks carrying the same :class:`GangSpec` ``(kernel, key)``
are grouped by :func:`~repro.exec.runner.run_tasks` and handed — as one
batch — to the named *gang kernel*, a module-level function that may
evaluate the whole scenario axis at once.

The contract a kernel must honour:

* ``kernel(tasks) -> list`` positionally aligned with ``tasks``;
* every non-:data:`DEFECT` element is **bitwise identical** to what
  ``tasks[i].execute()`` would have returned;
* a scenario the kernel cannot batch exactly — an ambient fault plan, a
  per-scenario exception, control flow that diverges from the pilot —
  is *defected*: the kernel returns :data:`DEFECT` in that slot and the
  runner falls back to the ordinary per-task (event-kernel) path for
  it.  Defection is always safe because the per-task path is the
  definition of correct.

Gang membership is **not** part of the task's cache identity: a ganged
scenario and the same task run solo share one content address, so a
partially cached grid gangs only the misses and the
:class:`~repro.exec.cache.ResultCache` stays oblivious to how an entry
was produced (the entry records ``via`` provenance for humans only).

The runner always hands a group to its kernel; the per-task path serves
the scenarios it defects.  The same tasks with their spec stripped
(``dataclasses.replace(task, gang=None)``) run one at a time, which is
how tests and benchmarks reach the per-task reference.

Two kernels ship with the library:

* :func:`calgrid_kernel` (here) — the generic *calibration-grid*
  kernel: the group shares ``(target, params, seed)`` and differs only
  in calibration.  It evaluates one scenario with a read-tracking
  calibration, learns which constants the leg actually reads, and
  shares the result with every scenario whose calibration agrees on
  exactly those constants — sound common-subsimulation elimination
  along the scenario axis (see :func:`run_projected` for the argument).
* ``repro.core.sensitivity:gang_cells`` — the sensitivity grid's
  kernel, which decomposes every cell into shape *legs* and runs each
  leg through :func:`run_projected` across all cells at once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

from repro import metrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.calibration import Calibration
    from repro.exec.task import SimTask

__all__ = [
    "DEFECT",
    "EvalError",
    "GangSpec",
    "GangStats",
    "calgrid_key",
    "calgrid_kernel",
    "gang_calgrid",
    "run_projected",
]

class _Defect:
    """Sentinel: this scenario must fall back to the per-task path."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DEFECT>"


#: Returned by a gang kernel in a scenario's slot to defect it back to
#: the scalar event-kernel path.
DEFECT = _Defect()


class EvalError:
    """A scenario evaluation that raised; carried as a value, not raised.

    :func:`run_projected` stores one of these in the failing scenario's
    slot so sibling scenarios still batch; kernels turn it into
    :data:`DEFECT` and the per-task path re-runs (and re-raises) it.
    """

    __slots__ = ("exception",)

    def __init__(self, exception: BaseException) -> None:
        self.exception = exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EvalError {self.exception!r}>"


@dataclass(frozen=True)
class GangSpec:
    """Opt-in gang metadata on a task (excluded from the cache identity).

    ``kernel`` is an importable ``"package.module:function"`` gang
    kernel; ``key`` is the structural group key — tasks gang together
    exactly when both match.  Planners must choose ``key`` so that the
    kernel's grouping precondition holds (e.g. :func:`calgrid_key`
    folds in target, params and seed, leaving only the calibration to
    vary inside a group).
    """

    kernel: str
    key: str

    def __post_init__(self) -> None:
        module, sep, func = self.kernel.partition(":")
        if not sep or not module or not func:
            raise ValueError(
                f"kernel must look like 'package.module:function', got {self.kernel!r}"
            )


#: Process-wide gang counters (the ``gang`` registry layer):
#: ``scenarios_ganged`` counts tasks whose result came out of a gang
#: kernel, ``scenarios_defected`` those a kernel handed back to the
#: per-task path, ``scenarios_solo`` gang-eligible tasks that ran
#: per-task because their group had a single member, and ``groups`` the
#: kernel invocations.  The task runner counts them.
_TOTALS = metrics.counters("gang", scenarios_ganged=0, scenarios_defected=0,
                           scenarios_solo=0, groups=0)


class GangStats:
    """Process-wide gang counters (report footers, benchmarks)."""

    @staticmethod
    def process_totals() -> dict[str, int]:
        """The ``gang`` registry layer as a plain dict."""
        return dict(_TOTALS)


def resolve_kernel(path: str) -> Callable[[Sequence["SimTask"]], List[Any]]:
    """Import and return the gang kernel named by *path*."""
    module, _, func = path.partition(":")
    fn = getattr(importlib.import_module(module), func, None)
    if fn is None:
        raise AttributeError(f"gang kernel {path!r} does not exist")
    return fn


# --------------------------------------------------------------------------
# The calibration-projection machinery shared by grid kernels.
# --------------------------------------------------------------------------

def run_projected(fn: Callable[["Calibration"], Any],
                  cals: Sequence["Calibration"]) -> List[Any]:
    """Evaluate ``fn(cal)`` for every scenario, sharing provably equal runs.

    The first time a calibration with a new *projection* appears, ``fn``
    runs with a read-tracking calibration that records exactly which
    constants the evaluation read.  Every later scenario whose
    calibration agrees on **all** of those constants shares the stored
    result without re-running.

    Why that is sound (bitwise, not approximately): ``fn`` is a
    deterministic function whose only scenario-dependent input is the
    calibration, and it observes the calibration exclusively through
    attribute reads (the tracking subclass intercepts every field
    access, including those made by ``replace``/``asdict``, which read
    every field and thus conservatively mark everything).  Replaying the
    recorded execution with a calibration that returns identical values
    for every recorded read reproduces, by induction over the reads in
    program order, the identical branch decisions, identical subsequent
    reads and identical arithmetic — hence the identical result.

    A scenario whose evaluation raises gets an :class:`EvalError` in its
    slot (and no projection class, so an identical later calibration
    re-runs and re-fails rather than silently sharing a failure).
    """
    from repro.core.calibration import tracking_calibration

    classes: List[Tuple[Tuple[str, ...], Tuple[Any, ...], Any]] = []
    out: List[Any] = []
    for cal in cals:
        for reads, projection, value in classes:
            if tuple(getattr(cal, name) for name in reads) == projection:
                out.append(value)
                break
        else:
            reads_sink: set = set()
            try:
                value = fn(tracking_calibration(cal, reads_sink))
            except Exception as exc:
                out.append(EvalError(exc))
                continue
            reads = tuple(sorted(reads_sink))
            classes.append(
                (reads, tuple(getattr(cal, name) for name in reads), value)
            )
            out.append(value)
    return out


def calgrid_key(target: str, params: dict, seed: int) -> str:
    """Group key for :func:`calgrid_kernel`: everything but the calibration."""
    from repro.exec.task import _canonical

    material = json.dumps(
        {"target": target, "params": _canonical(params), "seed": seed},
        sort_keys=True, separators=(",", ":"),
    )
    return "calgrid:" + hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def gang_calgrid(task: "SimTask") -> "SimTask":
    """*task*, marked eligible for the generic calibration-grid kernel.

    Planners wrap each leg task on the way out of ``plan``; the task is
    unchanged except for the gang metadata (same identity, same cache
    key), so it gangs only when a sweep actually produces siblings that
    differ in nothing but calibration.
    """
    spec = GangSpec(kernel="repro.exec.gang:calgrid_kernel",
                    key=calgrid_key(task.target, task.params, task.seed))
    return dataclasses.replace(task, gang=spec)


def calgrid_kernel(tasks: Sequence["SimTask"]) -> List[Any]:
    """Generic gang kernel for groups that differ only in calibration.

    Precondition (guaranteed by :func:`calgrid_key` grouping): every
    task shares ``(target, params, seed)``.  An ambient fault plan
    defects the whole group — fault arming couples scenarios to event
    order, which is exactly what the per-task event kernel owns — and a
    scenario whose evaluation raises defects alone, so the error
    surfaces from the ordinary path with its usual traceback.
    """
    from repro.core.calibration import CALIBRATION
    from repro.faults.plan import ambient_spec

    if ambient_spec():
        return [DEFECT] * len(tasks)
    lead = tasks[0]
    fn = lead.resolve()
    cals = [t.cal if t.cal is not None else CALIBRATION for t in tasks]
    values = run_projected(
        lambda cal: fn(seed=lead.seed, cal=cal, **lead.params), cals
    )
    return [DEFECT if isinstance(v, EvalError) else v for v in values]
