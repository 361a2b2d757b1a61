"""Command-line interface: run experiments and build the reproduction ledger.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro run fig09            # run one experiment, print report
    python -m repro run all              # run everything
    python -m repro report [-o FILE]     # regenerate EXPERIMENTS.md
    python -m repro report -j 4          # ... fanned across 4 worker processes
    python -m repro run fig09 --full     # paper-scale durations
    python -m repro run fig09 --faults "link-down@link:1,at=5,duration=2"

Exit status is non-zero if any paper-anchored check diverges.  With a
fault plan, ``run`` prints how many faults it injected, how many named
no target and how many simulation contexts armed the plan.  It exits 2
if no fault came due at all (no context armed the plan, or no armed
simulation ran to a fault's time, as in the analytic ``table1``) or if
none was injected and one was not resolved (a plan that matches
nothing, such as a typo in a selector).

Independent simulation tasks fan out across ``--jobs`` worker processes
and are served from a content-addressed result cache under
``--cache-dir`` (reports only; disable with ``--no-cache``).  Output is
byte-identical whatever the jobs count or cache state — parallelism and
caching only change the wall clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from repro import metrics
from repro.config import RunConfig
from repro.core import experiments as E
from repro.core.reportgen import generate_experiments_md
from repro.exec import ResultCache, executor, parse_jobs
from repro.faults.plan import fault_scope


def _all_modules():
    out = dict(E.ALL_FIGURES)
    out.update({f"ablation-{k}": v for k, v in E.ALL_ABLATIONS.items()})
    out.update({f"ext-{k}": v for k, v in E.ALL_EXTENSIONS.items()})
    return out


def cmd_list(_args) -> int:
    """List the available experiments."""
    mods = _all_modules()
    width = max(len(k) for k in mods)
    for name, module in mods.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<{width}}  {doc}")
    return 0


#: Flags parsed like their ``REPRO_*`` variable: ``(field, flag name)``.
_CONFIG_FLAGS = (
    ("faults", "--faults spec"),
    ("service_policy", "--service-policy"),
    ("arrival_rate", "--arrival-rate"),
    ("avail_hosts", "--availability-hosts"),
    ("avail_rates", "--availability-rates"),
)


def _run_config(args) -> RunConfig | None:
    """The run's configuration: the environment, overridden by flags.

    Validated once, up front: bad input prints the variable's or the
    flag's name and returns None (exit status 2).
    """
    label = "environment"
    try:
        config = RunConfig.from_env()
        for field, label in _CONFIG_FLAGS:
            text = getattr(args, field)
            if text is not None:
                config = config.parse(field, text)
    except ValueError as exc:
        print(f"bad {label}: {exc}", file=sys.stderr)
        return None
    return dataclasses.replace(
        config, full=config.full or args.full,
        jobs=config.jobs if args.jobs is None else args.jobs)


def cmd_run(args) -> int:
    """Run one experiment (or all) and print its report."""
    config = _run_config(args)
    if config is None:
        return 2
    mods = _all_modules()
    names = list(mods) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in mods]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(mods)}", file=sys.stderr)
        return 2
    failures = 0
    before = metrics.snapshot()
    with executor(jobs=config.jobs), fault_scope(config.faults):
        for name in names:
            t0 = time.time()
            run = mods[name].run
            report = run(quick=not config.full, seed=args.seed, **config.kwargs_for(run))
            print(report.render())
            print(f"\n[{name} finished in {time.time() - t0:.1f}s wall]\n")
            if not report.all_ok:
                failures += 1
    if config.faults is not None:
        counts = metrics.delta(before)["faults"]
        injected, unresolved = counts["faults_injected"], counts["unresolved"]
        print(f"faults: injected={injected} unresolved={unresolved} "
              f"armed={counts['armed']}", file=sys.stderr)
        if not injected and not unresolved:
            why = ("no simulation context armed it" if not counts["armed"]
                   else "no armed simulation ran to a fault's time")
            print(f"bad --faults spec: no fault came due in "
                  f"{', '.join(names)} ({why})", file=sys.stderr)
            return 2
        if unresolved and not injected:
            targets = ", ".join(spec.target for spec in config.faults.specs)
            print(f"bad --faults spec: no target matched ({targets})",
                  file=sys.stderr)
            return 2
    if failures:
        print(f"{failures} experiment(s) diverged from the paper",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args) -> int:
    """Regenerate the EXPERIMENTS.md ledger."""
    config = _run_config(args)
    if config is None:
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    stats: dict = {}

    with fault_scope(config.faults):
        text = generate_experiments_md(
            quick=not config.full, seed=args.seed, verbose=True,
            jobs=config.jobs, cache=cache, stats=stats, config=config)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    cache_note = (
        f"cache: {stats['cache']['hits']} hits / {stats['cache']['misses']} "
        f"misses (dir: {args.cache_dir})"
        if stats.get("cache") is not None else "cache: disabled"
    )
    # The footer goes to the console, never into the ledger: EXPERIMENTS.md
    # must stay byte-identical across jobs counts and cache states.
    print(f"[report] jobs={stats['jobs']}  tasks={stats['tasks']} "
          f"(executed {stats['executed']})  {cache_note}  "
          f"wall={stats['wall_seconds']:.2f}s")
    for layer in sorted(metrics.snapshot()):
        counts = stats.get(layer)
        if counts is not None:
            print(f"[{layer}] " + "  ".join(
                f"{name}={value:.6g}" if isinstance(value, float)
                else f"{name}={value}" for name, value in counts.items()))
    if args.stats_json:
        with open(args.stats_json, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _jobs_type(text: str) -> int:
    """Parse ``--jobs`` with :func:`repro.exec.runner.parse_jobs`.

    Bad counts are rejected here, at the argparse boundary, so the
    error names the flag instead of surfacing as a hung pool or a
    ValueError from deep inside the executor.
    """
    try:
        return parse_jobs(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The run-configuration flags; each overrides its REPRO_* variable."""
    parser.add_argument("--full", action="store_true",
                        help="paper-scale durations (minutes of simulated "
                        "time); also enabled by REPRO_FULL=1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "-j", "--jobs", type=_jobs_type, default=None, metavar="N",
        help="fan independent simulation tasks across N worker processes "
        "('auto' = one per CPU core; default: the REPRO_JOBS environment "
        "variable, else 1, fully serial)")
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults into every simulation context: a "
        "semicolon-separated plan like "
        "'link-down@link:1,at=5,duration=2' (default: the REPRO_FAULTS "
        "environment variable; part of the result-cache identity; see "
        "docs/MODELING.md section 9)")
    parser.add_argument(
        "--service-policy", default=None, metavar="POLICY",
        help="baseline policy the ext-service capacity curves compare "
        "numa-aware against: numa-blind (default) or fifo (also "
        "REPRO_SERVICE_POLICY; part of the result-cache identity)")
    parser.add_argument(
        "--arrival-rate", default=None, metavar="JOBS_PER_S",
        help="ext-service offered load in jobs/s per host (also "
        "REPRO_SERVICE_ARRIVAL; part of the result-cache identity)")
    parser.add_argument(
        "--availability-hosts", dest="avail_hosts", default=None,
        metavar="N[,N...]",
        help="host counts the ext-availability sweep runs, e.g. '128' or "
        "'128,512' (also REPRO_AVAIL_HOSTS; part of the result-cache "
        "identity)")
    parser.add_argument(
        "--availability-rates", dest="avail_rates", default=None,
        metavar="R[,R...]",
        help="ToR fault rates (fraction of pods cut) for ext-availability, "
        "e.g. '0.5' or '0.25,0.5,1.0' (also REPRO_AVAIL_RATE; part of "
        "the result-cache identity)")


def _parser() -> argparse.ArgumentParser:
    """The command-line grammar of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NUMA-aware RDMA end-to-end transfer systems (SC'13) "
        "reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate experiments").set_defaults(
        fn=cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment")
    _add_config_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md",
        description="Regenerate the EXPERIMENTS.md reproduction ledger. "
        "Independent simulation runs are cached on disk by content address "
        "(calibration + parameters + seed + code fingerprint), so repeated "
        "invocations skip already-computed runs; --jobs fans cache misses "
        "across worker processes. The written ledger is byte-identical "
        "whatever the jobs count or cache state.")
    p_rep.add_argument("-o", "--output", default="EXPERIMENTS.md")
    _add_config_flags(p_rep)
    p_rep.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="directory of the content-addressed result cache "
        "(default: .repro-cache)")
    p_rep.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache: recompute every simulation run")
    p_rep.add_argument(
        "--stats-json", default=None, metavar="FILE",
        help="also write executor stats (jobs, task count, cache "
        "hits/misses, wall seconds) to FILE as JSON")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
