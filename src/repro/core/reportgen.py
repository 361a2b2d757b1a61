"""EXPERIMENTS.md generation: run everything, assemble the document.

``python -m repro report`` (or :func:`generate_experiments_md`) runs
every figure/table experiment and every ablation, and renders one
markdown document recording paper-vs-measured for each — the repository's
reproduction ledger.

Execution goes through :mod:`repro.exec`: each experiment either
describes itself as independent :class:`~repro.exec.task.SimTask` legs
(modules exposing ``plan``/``assemble``) or runs whole as a single task.
The flattened task list fans out across ``jobs`` worker processes and is
served from the content-addressed result cache when one is given —
results always merge back in task order, so the rendered document is
byte-identical whatever the jobs count or cache state.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro import metrics
from repro.core import experiments as E
from repro.core.calibration import Calibration
from repro.exec import (
    ExecContext,
    ResultCache,
    SimTask,
    get_exec_context,
    run_tasks,
)

__all__ = ["generate_experiments_md"]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction ledger for *Ren et al., "Design and Performance Evaluation
of NUMA-Aware RDMA-Based End-to-End Data Transfer Systems"* (SC'13).

Every table and figure of the paper's evaluation is regenerated by a
benchmark under `benchmarks/`; this document records the outcome of one
complete run.  Absolute numbers come from the calibrated simulation
(see DESIGN.md for the substitution rationale); the **shape** of each
result — who wins, by what factor, where curves bend — is the
reproduction target and is asserted by the `status` column.

Regenerate with:

```
python -m repro report            # quick mode (CI-scale durations)
REPRO_FULL=1 python -m repro report   # paper-scale durations
```

"""

_REGISTRIES: Dict[str, Dict] = {
    "figures": E.ALL_FIGURES,
    "extensions": E.ALL_EXTENSIONS,
    "ablations": E.ALL_ABLATIONS,
}

_GROUP_TITLES = (
    ("figures", "# Figures and tables\n"),
    ("extensions",
     "# Extensions (claims the paper makes but could not test)\n"),
    ("ablations", "# Ablations (design choices the paper calls out)\n"),
)


def _md_escape(cell) -> str:
    return str(cell).replace("|", "\\|")


def _report_to_md(report) -> str:
    lines = [f"## {report.experiment_id}: {report.title}", ""]
    if report.checks:
        lines += ["| metric | paper | measured | status |",
                  "|---|---|---|---|"]
        for c in report.checks:
            status = {True: "✅ OK", False: "❌ DIVERGES", None: "—"}[c.ok]
            lines.append(
                f"| {_md_escape(c.metric)} | {_md_escape(c.paper)} "
                f"| {_md_escape(c.measured)} | {status} |"
            )
        lines.append("")
    if report.data_rows:
        headers = [str(h) for h in report.data_headers]
        lines += ["| " + " | ".join(headers) + " |",
                  "|" + "---|" * len(headers)]
        for row in report.data_rows:
            lines.append("| " + " | ".join(_md_escape(v) for v in row) + " |")
        lines.append("")
    for note in report.notes:
        lines.append(f"> {note}")
        lines.append("")
    return "\n".join(lines)


def run_whole_experiment(*, seed: int, cal: Optional[Calibration],
                         registry: str, name: str, quick: bool):
    """SimTask target wrapping one experiment module's ``run``.

    Used for modules that do not decompose into finer-grained legs via
    ``plan``/``assemble`` — the whole experiment is the task (and the
    cache unit).
    """
    return _REGISTRIES[registry][name].run(quick=quick, seed=seed, cal=cal)


def _plan_experiment(registry: str, name: str, module, quick: bool,
                     seed: int, cal: Optional[Calibration]
                     ) -> Tuple[List[SimTask], object]:
    """An experiment's tasks + the callable that folds results to a report."""
    if hasattr(module, "plan") and hasattr(module, "assemble"):
        tasks = module.plan(quick=quick, seed=seed, cal=cal)
        return list(tasks), module.assemble
    task = SimTask("repro.core.reportgen:run_whole_experiment",
                   {"registry": registry, "name": name, "quick": quick},
                   seed=seed, cal=cal, label=f"{registry}/{name}")

    def assemble_single(results, **_kwargs):
        return results[0]

    return [task], assemble_single


def generate_experiments_md(
    quick: bool = True,
    seed: int = 0,
    cal: Optional[Calibration] = None,
    verbose: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    only: Optional[Iterable[str]] = None,
    stats: Optional[dict] = None,
) -> str:
    """Run all experiments and return the EXPERIMENTS.md content.

    ``jobs``/``cache`` configure the task executor (``jobs=None`` and
    ``cache=None`` defer to the ambient :class:`ExecContext`; ``jobs=0``
    means one worker per CPU core).  ``only`` restricts generation to the
    named experiments (tests).  ``stats``, if given, is filled in place
    with executor telemetry: jobs, task count, cache counters, wall
    seconds, and per registry layer (:mod:`repro.metrics`) the counters'
    growth over this run, worker processes included (None if idle).
    The returned text depends only on ``quick``/``seed``/``cal``/``only``
    — never on jobs or cache state.
    """
    t_start = time.perf_counter()
    counts_before = metrics.snapshot()
    ctx = get_exec_context()
    if jobs is not None or cache is not None:
        ctx = ExecContext(jobs=ctx.jobs if jobs is None else jobs,
                          cache=cache)

    # Plan every experiment, in document order, then execute one flat batch.
    entries = []  # (group, name, tasks, assemble)
    for group, _title in _GROUP_TITLES:
        for name, module in _REGISTRIES[group].items():
            if only is not None and name not in only:
                continue
            tasks, assemble = _plan_experiment(group, name, module,
                                               quick, seed, cal)
            entries.append((group, name, tasks, assemble))

    flat: List[SimTask] = [t for _, _, tasks, _ in entries for t in tasks]
    results = run_tasks(flat, ctx)

    sections = [_HEADER]
    mode = "quick (CI-scale durations)" if quick else "full (paper-scale durations)"
    sections.append(f"_Run mode: {mode}._\n")

    total_checks = ok_checks = 0
    cursor = 0
    current_group = None
    for group, name, tasks, assemble in entries:
        if group != current_group:
            sections.append(dict(_GROUP_TITLES)[group])
            current_group = group
        chunk = results[cursor:cursor + len(tasks)]
        cursor += len(tasks)
        report = assemble(chunk, quick=quick, seed=seed, cal=cal)
        if verbose and group != "extensions":
            print(f"  {name}: {'ok' if report.all_ok else 'DIVERGES'}")
        sections.append(_report_to_md(report))
        scored = [c for c in report.checks if c.ok is not None]
        total_checks += len(scored)
        ok_checks += sum(1 for c in scored if c.ok)

    sections.insert(
        2,
        f"**Scorecard: {ok_checks}/{total_checks} paper-anchored checks "
        "reproduce.**\n",
    )
    if stats is not None:
        # Footer telemetry, never ledger content.  A layer that counted
        # nothing this run (no probes, no faults, no broker) reports None;
        # the fluid allocator, the kernel every simulation runs on, is
        # always reported.
        stats.update({
            "jobs": ctx.effective_jobs,
            "tasks": len(flat),
            "executed": ctx.executed,
            "cache": (ctx.cache.stats.as_dict()
                      if ctx.cache is not None else None),
            "wall_seconds": time.perf_counter() - t_start,
        })
        for layer, counts in metrics.delta(counts_before).items():
            active = layer == "fluid" or any(counts.values())
            stats[layer] = counts if active else None
    return "\n".join(sections)
