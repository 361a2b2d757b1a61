"""Parallel experiment execution with a content-addressed result cache.

The reproduction harness decomposes every figure, ablation and
sensitivity sweep into independent :class:`~repro.exec.task.SimTask`
units (one simulation run each).  :func:`~repro.exec.runner.run_tasks`
executes a batch — serial by default, fanned across a process pool with
``jobs > 1`` — and always merges results back in task order, so serial,
parallel and cache-served runs produce byte-identical reports.

Results are cached on disk by content address: a SHA-256 over the
task's target, parameters, seed, every
:class:`~repro.core.calibration.Calibration` field, and a fingerprint of
the library's own source.  Dense scenario sweeps additionally opt into
**gang execution** (:mod:`repro.exec.gang`): tasks sharing a
:class:`~repro.exec.gang.GangSpec` run as one batched scenario program,
with per-scenario defection back to the ordinary path whenever batching
cannot be exact.  See ``README.md`` ("Parallel runner & result cache")
and ``docs/MODELING.md`` (seed discipline, §11 gang semantics) for the
invariants that make this safe.
"""

from repro.exec.cache import CacheStats, ResultCache
from repro.exec.fingerprint import code_fingerprint
from repro.exec.gang import DEFECT, GangSpec, GangStats, gang_calgrid
from repro.exec.runner import (ExecContext, default_jobs, executor,
                               get_exec_context, parse_jobs, run_tasks)
from repro.exec.task import SimTask

__all__ = [
    "CacheStats",
    "DEFECT",
    "ExecContext",
    "GangSpec",
    "GangStats",
    "ResultCache",
    "SimTask",
    "code_fingerprint",
    "default_jobs",
    "executor",
    "gang_calgrid",
    "get_exec_context",
    "parse_jobs",
    "run_tasks",
]
