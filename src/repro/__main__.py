"""Command-line interface: run experiments and build the reproduction ledger.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro run fig09            # run one experiment, print report
    python -m repro run all              # run everything
    python -m repro report [-o FILE]     # regenerate EXPERIMENTS.md
    python -m repro report -j 4          # ... fanned across 4 worker processes
    python -m repro run fig09 --full     # paper-scale durations
    python -m repro run fig09 --faults "link-down@link:1,at=5,duration=2"

Exit status is non-zero if any paper-anchored check diverges.

Independent simulation tasks fan out across ``--jobs`` worker processes
and are served from a content-addressed result cache under
``--cache-dir`` (reports only; disable with ``--no-cache``).  Output is
byte-identical whatever the jobs count or cache state — parallelism and
caching only change the wall clock.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import metrics
from repro.core import experiments as E
from repro.core.reportgen import generate_experiments_md
from repro.exec import ResultCache, executor, parse_jobs


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


def _apply_faults_flag(args) -> int:
    """Export ``--faults`` as REPRO_FAULTS (inherited by worker processes).

    Validates the spec up front so a typo fails fast with a parse error
    instead of surfacing from inside a worker mid-run.
    """
    spec = getattr(args, "faults", None)
    if spec is None:
        return 0
    from repro.faults.plan import REPRO_FAULTS_ENV, FaultPlan

    try:
        FaultPlan.parse(spec)
    except ValueError as exc:
        print(f"bad --faults spec: {exc}", file=sys.stderr)
        return 2
    os.environ[REPRO_FAULTS_ENV] = spec
    return 0


def cmd_run(args) -> int:
    """Run one experiment (or all) and print its report."""
    rc = _apply_faults_flag(args) or _apply_knob_flags(args)
    if rc:
        return rc
    mods = _all_modules()
    names = list(mods) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in mods]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(mods)}", file=sys.stderr)
        return 2
    failures = 0
    with executor(jobs=args.jobs):
        for name in names:
            t0 = time.time()
            report = mods[name].run(quick=not args.full, seed=args.seed)
            print(report.render())
            print(f"\n[{name} finished in {time.time() - t0:.1f}s wall]\n")
            if not report.all_ok:
                failures += 1
    if failures:
        print(f"{failures} experiment(s) diverged from the paper",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args) -> int:
    """Regenerate the EXPERIMENTS.md ledger."""
    rc = _apply_faults_flag(args) or _apply_knob_flags(args)
    if rc:
        return rc
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    stats: dict = {}

    def _generate() -> str:
        return generate_experiments_md(quick=not args.full, seed=args.seed,
                                       verbose=True, jobs=args.jobs,
                                       cache=cache, stats=stats)

    if args.profile is None:
        text = _generate()
    else:
        text = _profiled(_generate, top=args.profile)
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


def _profiled(fn, top: int):
    """Run *fn* under cProfile, dump the top-N cumulative rows to stderr."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    result = prof.runcall(fn)
    stats = pstats.Stats(prof, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(top)
    return result


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


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-j", "--jobs", type=_jobs_type, default=None, metavar="N",
        help="fan independent simulation tasks across N worker processes "
        "('auto' = one per CPU core; default: the REPRO_JOBS environment "
        "variable, else 1, fully serial)")


def _add_faults_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults into every simulation context: a "
        "semicolon-separated plan like "
        "'link-down@link:1,at=5,duration=2' (sets REPRO_FAULTS; part "
        "of the result-cache identity; see docs/MODELING.md section 9)")


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--service-policy", default=None, metavar="POLICY",
        help="baseline policy the ext-service capacity curves compare "
        "numa-aware against: numa-blind (default) or fifo (sets "
        "REPRO_SERVICE_POLICY; part of the result-cache identity)")
    parser.add_argument(
        "--arrival-rate", default=None, metavar="JOBS_PER_S",
        help="ext-service offered load in jobs/s per host (sets "
        "REPRO_SERVICE_ARRIVAL; part of the result-cache identity)")


def _add_availability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--availability-hosts", default=None, metavar="N[,N...]",
        help="host counts the ext-availability sweep runs, e.g. '128' or "
        "'128,512' (sets REPRO_AVAIL_HOSTS; part of the result-cache "
        "identity)")
    parser.add_argument(
        "--availability-rates", default=None, metavar="R[,R...]",
        help="ToR fault rates (fraction of pods cut) for ext-availability, "
        "e.g. '0.5' or '0.25,0.5,1.0' (sets REPRO_AVAIL_RATE; part of "
        "the result-cache identity)")


#: Flags that set an experiment knob: ``(dest, flag, env var, parser)``.
#: The parser is the experiment module's own — the one that reads the
#: variable — so the CLI holds no second copy of its validation.
_KNOB_FLAGS = (
    ("service_policy", "--service-policy", "REPRO_SERVICE_POLICY",
     E.ext_service.parse_policy),
    ("arrival_rate", "--arrival-rate", "REPRO_SERVICE_ARRIVAL",
     E.ext_service.parse_rate),
    ("availability_hosts", "--availability-hosts", "REPRO_AVAIL_HOSTS",
     E.ext_availability.parse_hosts),
    ("availability_rates", "--availability-rates", "REPRO_AVAIL_RATE",
     E.ext_availability.parse_rates),
)


def _apply_knob_flags(args) -> int:
    """Export the experiment-knob flags (inherited by worker processes).

    Validated up front like ``--faults``: a bad value fails here with
    the flag's name, not from inside a worker mid-run.
    """
    for dest, flag, env, parse in _KNOB_FLAGS:
        text = getattr(args, dest, None)
        if text is None:
            continue
        text = text.strip()
        try:
            parse(text)
        except ValueError as exc:
            print(f"bad {flag}: {exc}", file=sys.stderr)
            return 2
        os.environ[env] = text
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NUMA-aware RDMA end-to-end transfer systems (SC'13) "
        "reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate experiments").set_defaults(
        fn=cmd_list)

    # REPRO_FULL=1 in the environment is equivalent to passing --full
    # (the benchmarks and CI full-scale smoke use the env form).
    full_default = os.environ.get("REPRO_FULL", "") == "1"

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment")
    p_run.add_argument("--full", action="store_true", default=full_default,
                       help="paper-scale durations (minutes of simulated "
                       "time); also enabled by REPRO_FULL=1")
    p_run.add_argument("--seed", type=int, default=0)
    _add_jobs_flag(p_run)
    _add_faults_flag(p_run)
    _add_service_flags(p_run)
    _add_availability_flags(p_run)
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
    p_rep.add_argument("--full", action="store_true", default=full_default,
                       help="paper-scale durations; also enabled by "
                       "REPRO_FULL=1")
    p_rep.add_argument("--seed", type=int, default=0)
    _add_jobs_flag(p_rep)
    _add_faults_flag(p_rep)
    _add_service_flags(p_rep)
    _add_availability_flags(p_rep)
    p_rep.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="directory of the content-addressed result cache "
        "(default: .repro-cache)")
    p_rep.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache: recompute every simulation run")
    p_rep.add_argument(
        "--profile", type=int, nargs="?", const=30, default=None, metavar="N",
        help="run under cProfile and print the top N functions by "
        "cumulative time to stderr (default N: 30)")
    p_rep.add_argument(
        "--stats-json", default=None, metavar="FILE",
        help="also write executor stats (jobs, task count, cache "
        "hits/misses, wall seconds) to FILE as JSON")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
