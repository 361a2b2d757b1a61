#!/usr/bin/env python3
"""Profile the report pipeline (or one experiment) with cProfile.

Future perf PRs should start from data, not guesses: this script runs
the same code path as ``python -m repro report`` (or ``run <name>``)
under :mod:`cProfile` and prints the top-N functions by cumulative time,
plus the top-N by total (self) time — the first tells you *which layer*
is slow, the second *which function* burns the cycles.  Usage::

    PYTHONPATH=src python scripts/profile_report.py            # whole report
    PYTHONPATH=src python scripts/profile_report.py fig09      # one experiment
    PYTHONPATH=src python scripts/profile_report.py fig09 -n 40
    PYTHONPATH=src python scripts/profile_report.py --full     # paper-scale
    PYTHONPATH=src python scripts/profile_report.py -o prof.out  # for snakeviz

``--leg TARGET`` profiles one SimTask target instead (no hand-written
driver scripts): a shorthand (``fleet_leg``, ``service_leg``,
``diff_leg``) with sensible defaults, or any ``module:function``
whose keyword arguments you supply with repeatable ``--param``
overrides.  The tables are followed by a churn/settle/dispatch phase
breakdown (broker+workload control plane vs fluid solver vs event
kernel)::

    PYTHONPATH=src python scripts/profile_report.py --leg fleet_leg
    PYTHONPATH=src python scripts/profile_report.py --leg fleet_leg \
        --param hosts=512 --param qp_mode=per-job
    PYTHONPATH=src python scripts/profile_report.py \
        --leg repro.core.experiments.service_legs:service_leg \
        --param policy=numa-blind --param duration=4.0

The no-argument form profiles the same report ``python -m repro
report`` writes.  Profiling is always serial and cache-free — worker
processes and cache hits would hide the simulation cost being measured.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import inspect
import io
import json
import pstats
import sys

#: ``--leg`` shorthands: target + the keyword defaults it needs beyond
#: seed/cal (override any of them with ``--param``).
LEG_SHORTHANDS = {
    "fleet_leg": ("repro.core.experiments.fleet_legs:fleet_leg",
                  {"hosts": 128, "qp_mode": "pooled",
                   "rate_per_host": 4.0, "size_mean_mib": 64.0}),
    "service_leg": ("repro.core.experiments.service_legs:service_leg",
                    {"hosts": 8, "policy": "numa-aware",
                     "rate_per_host": 4.0, "duration": 8.0}),
    "diff_leg": ("repro.core.experiments.fleet_legs:diff_leg", {}),
}

#: Phase buckets for the --leg breakdown: the first matching substring
#: of a frame's filename claims its self time.
PHASES = (
    ("churn", ("service/broker.py", "service/workload.py",
               "service/fabric.py", "service/scheduler.py",
               "rdma/qpool.py")),
    ("settle", ("sim/fluid.py",)),
    ("dispatch", ("sim/engine.py",)),
)


def parse_params(pairs: list[str]) -> dict:
    """``key=value`` pairs -> kwargs (values JSON-decoded when possible)."""
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value  # bare string (e.g. qp_mode=pooled)
    return params


def resolve_leg(leg: str, overrides: dict):
    """A --leg TARGET -> (callable, kwargs); exits naming any keyword
    the target does not accept."""
    target, defaults = LEG_SHORTHANDS.get(leg, (leg, {}))
    if ":" not in target:
        known = ", ".join(LEG_SHORTHANDS)
        raise SystemExit(
            f"unknown leg {leg!r}: use one of {known}, or module:function")
    mod_name, _, func_name = target.partition(":")
    try:
        func = getattr(importlib.import_module(mod_name), func_name)
    except (ImportError, AttributeError) as exc:
        raise SystemExit(f"cannot resolve leg target {target!r}: {exc}")
    kwargs = dict(defaults)
    kwargs.update(overrides)
    accepted = inspect.signature(func).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in accepted.values()):
        unknown = [key for key in kwargs if key not in accepted]
        if unknown:
            raise SystemExit(
                f"leg target {target!r} does not accept "
                f"{', '.join(unknown)}; it accepts: {', '.join(accepted)}")
    return func, kwargs


def phase_breakdown(prof: cProfile.Profile) -> list[tuple[str, float]]:
    """Self-time totals per phase bucket (churn/settle/dispatch/other)."""
    totals = {name: 0.0 for name, _ in PHASES}
    totals["other"] = 0.0
    grand = 0.0
    for (filename, _lineno, _func), stat in pstats.Stats(prof).stats.items():
        tottime = stat[2]
        grand += tottime
        for name, needles in PHASES:
            if any(needle in filename for needle in needles):
                totals[name] += tottime
                break
        else:
            totals["other"] += tottime
    return [(name, t, (t / grand if grand > 0 else 0.0))
            for name, t in totals.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the EXPERIMENTS.md pipeline or one experiment")
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment name (see 'python -m repro list'); "
        "default: the full report pipeline")
    parser.add_argument("-n", "--top", type=int, default=30, metavar="N",
                        help="rows to print per table (default: 30)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale durations instead of quick mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="also dump raw pstats data to FILE "
                        "(inspect with snakeviz or pstats)")
    parser.add_argument(
        "--leg", default=None, metavar="TARGET",
        help="profile one SimTask target instead: a shorthand "
        f"({', '.join(LEG_SHORTHANDS)}) or module:function")
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="keyword override for the --leg target (repeatable; "
        "values parsed as JSON when possible)")
    args = parser.parse_args(argv)

    if args.param and args.leg is None:
        parser.error("--param requires --leg")
    if args.leg is not None and args.experiment is not None:
        parser.error("--leg and an experiment name are mutually exclusive")

    if args.leg is not None:
        func, kwargs = resolve_leg(args.leg, parse_params(args.param))
        kwargs.setdefault("seed", args.seed)
        kwargs.setdefault("cal", None)

        def target():
            func(**kwargs)
    elif args.experiment is None:
        from repro.core.reportgen import generate_experiments_md

        def target():
            generate_experiments_md(quick=not args.full, seed=args.seed)
    else:
        from repro.core import experiments as E

        mods = dict(E.ALL_FIGURES)
        mods.update({f"ablation-{k}": v for k, v in E.ALL_ABLATIONS.items()})
        mods.update({f"ext-{k}": v for k, v in E.ALL_EXTENSIONS.items()})
        if args.experiment not in mods:
            print(f"unknown experiment: {args.experiment}", file=sys.stderr)
            print(f"available: {', '.join(mods)}", file=sys.stderr)
            return 2
        module = mods[args.experiment]

        def target():
            module.run(quick=not args.full, seed=args.seed)

    prof = cProfile.Profile()
    prof.runcall(target)

    if args.output:
        prof.dump_stats(args.output)
        print(f"raw profile written to {args.output}\n")

    for sort_key, title in (("cumulative", "cumulative time"),
                            ("tottime", "self time")):
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats(sort_key).print_stats(args.top)
        print(f"=== top {args.top} by {title} ===")
        print(buf.getvalue())

    if args.leg is not None:
        print("=== phase breakdown (self time) ===")
        for name, seconds, fraction in phase_breakdown(prof):
            print(f"  {name:<9} {seconds:8.3f} s  {fraction:6.1%}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
