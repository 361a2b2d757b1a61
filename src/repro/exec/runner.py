"""Process-pool task runner with deterministic merge order.

:func:`run_tasks` takes a list of :class:`~repro.exec.task.SimTask` and
returns their results *in task order*, regardless of how they were
scheduled.  Execution is:

1. **cache lookup** — tasks whose content address is already in the
   active :class:`~repro.exec.cache.ResultCache` are not re-run;
2. **dedup** — tasks with identical identity inside one call execute
   once and share the result (e.g. Fig. 9's GridFTP leg and Fig. 10's
   GridFTP leg are the same simulation);
3. **gang grouping** — cache-missed tasks carrying the same
   :class:`~repro.exec.gang.GangSpec` run as one batch through their
   gang kernel (scenario-axis execution); scenarios the kernel defects
   fall through to step 4 unchanged;
4. **fan-out** — remaining tasks run serially (``jobs=1``, the default:
   determinism-by-default, no pickling, no subprocesses) or on a
   ``ProcessPoolExecutor`` of ``jobs`` workers.  ``REPRO_JOBS`` changes
   the *default* worker count (``auto`` = one per core); an explicit
   jobs argument — the CLI's ``--jobs`` above all — always wins.

Parallelism is safe because tasks share nothing: each builds its own
:class:`~repro.sim.context.Context` (own clock, own
:class:`~repro.sim.rng.RngRegistry` seeded from the task's seed), so a
task's result is a pure function of ``(target, params, seed, cal,
code)`` — the same tuple the cache key hashes.  Workers never nest
pools: a ``run_tasks`` call inside a worker process falls back to serial
execution.

The *ambient* :class:`ExecContext` (see :func:`executor`) is what the
experiment modules consult, so ``module.run()`` stays a plain serial
call unless a caller — the CLI's ``--jobs``, the report generator, a
benchmark — has installed a parallel context around it.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro import metrics
from repro.exec.cache import CacheStats, ResultCache
from repro.exec.gang import DEFECT, resolve_kernel
from repro.exec.task import SimTask
from repro.util.validation import env_override

__all__ = ["ExecContext", "default_jobs", "executor", "get_exec_context",
           "parse_jobs", "run_tasks"]


def parse_jobs(text: str) -> int:
    """Parse a worker count: a positive integer, or ``auto`` (returned as
    0, one worker per CPU core).

    The one validator behind both ``REPRO_JOBS`` and the CLI's
    ``--jobs``; raises ``ValueError`` on bad input.
    """
    if text.strip().lower() == "auto":
        return 0
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError(
            f"must be a positive integer or 'auto', got {text!r}") from None
    if jobs <= 0:
        raise ValueError(
            f"must be >= 1 (or 'auto' for one worker per CPU core), "
            f"got {jobs}")
    return jobs


def default_jobs() -> int:
    """The worker-count default: ``REPRO_JOBS``, else 1 (fully serial).

    ``REPRO_JOBS`` accepts what :func:`parse_jobs` does.  An explicit
    jobs count — the CLI's ``--jobs``, a benchmark's
    ``executor(jobs=N)`` — always wins over the environment; the
    variable only fills the default.
    """
    return env_override("REPRO_JOBS", parse_jobs, 1)


@dataclass
class ExecContext:
    """How tasks execute right now: worker count + optional result cache."""

    #: Worker processes for task fan-out; 1 = serial in-process, 0 = one
    #: per CPU core, None = the :func:`default_jobs` environment default.
    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    #: Tasks actually executed (not served from cache) under this context.
    executed: int = 0

    @property
    def effective_jobs(self) -> int:
        """``jobs`` with None resolved from the environment and 0 to the
        usable-CPU count."""
        jobs = self.jobs if self.jobs is not None else default_jobs()
        if jobs > 0:
            return jobs
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1

    @property
    def cache_stats(self) -> CacheStats:
        """The active cache's counters (zeros when caching is off)."""
        return self.cache.stats if self.cache is not None else CacheStats()


#: Module-level ambient context: serial and cacheless unless overridden.
_CURRENT = ExecContext()


def get_exec_context() -> ExecContext:
    """The ambient execution context consulted by :func:`run_tasks`."""
    return _CURRENT


@contextmanager
def executor(jobs: Optional[int] = None, cache: Optional[ResultCache] = None,
             cache_dir: Optional[os.PathLike | str] = None
             ) -> Iterator[ExecContext]:
    """Install an ambient :class:`ExecContext` for the duration of a block.

    *jobs* = None defers to ``REPRO_JOBS`` (see :func:`default_jobs`).
    Pass either a ready-made *cache* or a *cache_dir* to enable result
    caching (neither = no cache).
    """
    global _CURRENT
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    ctx = ExecContext(jobs=jobs, cache=cache)
    previous = _CURRENT
    _CURRENT = ctx
    try:
        yield ctx
    finally:
        _CURRENT = previous


#: The ``gang`` registry layer (declared by :mod:`repro.exec.gang`).
_GANG = metrics.counters("gang")


def _execute(task: SimTask) -> tuple:
    """Run *task*; return its result and the counters it added.

    The counts start from zero (a forked worker inherits the parent's
    totals) and the caller merges them in task order, so serial and
    parallel runs add up even the float counters identically.
    """
    saved = metrics.snapshot()
    metrics.reset()
    try:
        return task.execute(), metrics.snapshot()
    finally:
        metrics.reset()
        metrics.merge(saved)


def _pool(workers: int) -> ProcessPoolExecutor:
    # Prefer fork: workers inherit the already-imported library, so a
    # 30 ms leg is not buried under a fresh interpreter's import time.
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        mp_context = None
    return ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)


def run_tasks(tasks: Sequence[SimTask],
              ctx: Optional[ExecContext] = None) -> List[Any]:
    """Execute *tasks* and return their results in task order.

    Uses the ambient context unless *ctx* is given.  The result list is
    positionally aligned with *tasks* whatever the execution order, so
    callers can rely on serial/parallel/cached runs being
    indistinguishable.
    """
    ctx = ctx if ctx is not None else get_exec_context()
    cache = ctx.cache
    results: List[Any] = [None] * len(tasks)

    pending: List[int] = []
    for i, task in enumerate(tasks):
        if not isinstance(task, SimTask):
            raise TypeError(f"tasks[{i}] is {type(task).__name__}, expected SimTask")
        if cache is not None:
            hit, value = cache.get(task)
            if hit:
                results[i] = value
                continue
        pending.append(i)

    # Identical tasks (same identity) execute once per call.
    groups: Dict[str, List[int]] = {}
    for i in pending:
        groups.setdefault(tasks[i].identity(), []).append(i)
    leaders = [indices[0] for indices in groups.values()]

    # Gang grouping: cache-missed leaders sharing a (kernel, key) spec
    # run as one batched scenario program; defected scenarios (and
    # groups of one, which have no batching to win) fall through to the
    # ordinary per-task path below.  Kernels run in-process — their
    # parallelism is the scenario axis, not worker processes.
    computed: Dict[int, Any] = {}
    gangs: Dict[tuple, List[int]] = {}
    for i in leaders:
        spec = tasks[i].gang
        if spec is not None:
            gangs.setdefault((spec.kernel, spec.key), []).append(i)
    for (kernel, _key), idxs in gangs.items():
        if len(idxs) < 2:
            _GANG["scenarios_solo"] += len(idxs)
            continue
        try:
            values = resolve_kernel(kernel)([tasks[i] for i in idxs])
            if len(values) != len(idxs):
                raise ValueError(
                    f"gang kernel {kernel!r} returned {len(values)} "
                    f"results for {len(idxs)} tasks")
        except Exception:
            # A broken kernel must never break the run: defect the
            # whole group to the per-task path (whose results are
            # correct by definition) and keep going.
            values = [DEFECT] * len(idxs)
        defected = 0
        for i, value in zip(idxs, values):
            if value is DEFECT:
                defected += 1
            else:
                computed[i] = value
        _GANG["groups"] += 1
        _GANG["scenarios_ganged"] += len(idxs) - defected
        _GANG["scenarios_defected"] += defected

    ganged = set(computed)
    remaining = [i for i in leaders if i not in ganged]
    workers = min(ctx.effective_jobs, len(remaining))
    if multiprocessing.parent_process() is not None:
        workers = 1  # never nest process pools inside a worker
    if workers <= 1:
        outcomes = [_execute(tasks[i]) for i in remaining]
    else:
        with _pool(workers) as pool:
            futures = [pool.submit(_execute, tasks[i]) for i in remaining]
            outcomes = [future.result() for future in futures]
    for i, (value, counts) in zip(remaining, outcomes):
        computed[i] = value
        metrics.merge(counts)
    ctx.executed += len(leaders)

    for indices in groups.values():
        value = computed[indices[0]]
        for i in indices:
            results[i] = value
        if cache is not None:
            cache.put(tasks[indices[0]], value,
                      via="gang" if indices[0] in ganged else "task")
    return results
