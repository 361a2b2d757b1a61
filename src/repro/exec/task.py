"""The unit of parallel execution: one independent simulation run.

A :class:`SimTask` names a module-level *target* function (as an
importable ``"package.module:function"`` path, so the task pickles
across process boundaries), the keyword parameters to call it with, the
root seed, the :class:`~repro.core.calibration.Calibration` the run is
charged against, and its fault plan.  Two tasks with equal identity are
guaranteed to produce equal results — every stochastic component draws
from a :class:`~repro.sim.rng.RngRegistry` seeded only by the task's
own seed, and no simulation state is shared between tasks — which is
what makes both process-pool fan-out and content-addressed result
caching safe.

Target functions must

* be module-level (importable by name from a worker process),
* accept ``(*, seed, cal, **params)`` keyword arguments only, and
* return a picklable value that depends only on those arguments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.faults.plan import FaultPlan, fault_scope, scoped_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.calibration import Calibration
    from repro.exec.gang import GangSpec

__all__ = ["SimTask"]

#: Bump when the on-disk cache entry layout changes (invalidates all keys).
#: v6: entries carry ``via`` provenance (gang vs per-task execution) —
#: older entries without the key still load, but the bump guarantees no
#: pre-gang-era result is ever replayed into a gang-era report.
#: v7: the topology-sharded runtime — legs may fan out into shard tasks
#: whose boundary-exchange grants are part of their params, and fabric
#: ledgers grew queue/QP-census fields; no pre-shard-era entry may
#: satisfy a shard-era lookup.
#: v8: the churn-coalescing fluid layer; pre-coalescing entries are
#: retired wholesale.
#: v9: failure domains and the crash-tolerant control plane — fault
#: plans grew domain targets (``host:``/``tor:``/``power:``) and a
#: ``stagger`` knob, brokers grew journal/heartbeat/retry/brownout
#: fields, and fabric ledgers carry audit + goodput-timeline keys;
#: pre-availability entries are retired wholesale.
CACHE_FORMAT_VERSION = 9


def _canonical(obj: Any) -> Any:
    """Reduce *obj* to a JSON-stable structure (raises on non-canonical types)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    raise TypeError(
        f"SimTask params must be JSON-canonical (got {type(obj).__name__}); "
        "pass primitives, lists/dicts of primitives, or dataclasses of them"
    )


@dataclass(frozen=True)
class SimTask:
    """One independent, deterministic, cacheable simulation run."""

    #: Importable target, ``"package.module:function"``.
    target: str
    #: Keyword arguments for the target (JSON-canonical values only).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Root seed for the task's own RNG registry.
    seed: int = 0
    #: Calibration the run is charged against (None = library default).
    cal: "Optional[Calibration]" = None
    #: Display label (progress/debugging only; excluded from the identity).
    label: str = ""
    #: Gang-execution opt-in (see :mod:`repro.exec.gang`).  Excluded from
    #: the identity: a ganged scenario and the same task run solo are
    #: bit-identical by contract, so they share one cache entry — which
    #: is what lets a partially cached grid gang only the misses.
    gang: "Optional[GangSpec]" = None
    #: Fault plan the run is armed with (None, or empty: fault-free);
    #: defaults to the run-wide plan of the enclosing
    #: :func:`~repro.faults.plan.fault_scope`.
    faults: Optional[FaultPlan] = field(default_factory=scoped_plan)

    def __post_init__(self) -> None:
        module, sep, func = self.target.partition(":")
        if not sep or not module or not func:
            raise ValueError(
                f"target must look like 'package.module:function', got {self.target!r}"
            )
        if self.faults is not None and self.faults.empty:
            object.__setattr__(self, "faults", None)

    # -- execution ---------------------------------------------------------------
    def resolve(self) -> Callable[..., Any]:
        """Import and return the target callable."""
        module, _, func = self.target.partition(":")
        fn = getattr(importlib.import_module(module), func, None)
        if fn is None:
            raise AttributeError(f"target {self.target!r} does not exist")
        return fn

    def execute(self) -> Any:
        """Run the task in the current process (in the scope of its own
        fault plan) and return its result."""
        with fault_scope(self.faults):
            return self.resolve()(seed=self.seed, cal=self.cal, **self.params)

    # -- identity ----------------------------------------------------------------
    def identity(self) -> str:
        """Canonical JSON of everything the result depends on (except code).

        The fault plan is part of the identity (canonical JSON; ""
        when fault-free): cached legs must never mix fault
        configurations, and a fault-free task keys identically to the
        pre-fault-subsystem behaviour it is byte-identical to.
        """
        return json.dumps(
            {
                "target": self.target,
                "params": _canonical(self.params),
                "seed": self.seed,
                "cal": _canonical(self.cal),
                "faults": "" if self.faults is None else self.faults.canonical(),
                "v": CACHE_FORMAT_VERSION,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def cache_key(self, fingerprint: str) -> str:
        """Content address of the result: identity + code *fingerprint*."""
        material = f"{fingerprint}\n{self.identity()}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable name (label, else target function)."""
        return self.label or self.target.partition(":")[2]
