"""One benchmark rep: a fresh process running one workload, serially.

Started by ``run.py`` with ``PYTHONPATH=<checkout>/src`` and a scrubbed
environment; never imported by the program under test.  The first
statement starts the set-up clock.  Set-up (imports, code fingerprint,
planning) ends where the first task starts.  Then:

* a **cold pass** runs every operation of the workload through
  ``executor(jobs=1)`` against a fresh, empty ``ResultCache`` — what the
  CLI's default ``report`` does on a clean checkout;
* with ``--warm``, a **warm pass** runs them again over the same cache;
* traced (``--trace``), the cold pass runs with the layer entry points
  wrapped by ``trace.py`` and there is no warm pass.

The rep writes one JSON record to ``--out``: set-up phases, pass wall
times, per-operation digests and invariants, exact program counters,
peak RSS, and (traced) the span rows.  ``run.py`` turns records into
metrics and checks digests against the committed reference.

An *operation* is one leg (a ``SimTask`` through the result cache) or,
in ``paper-figures``, one experiment's ``module.run(quick=False, seed=S)``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_LEGS = "repro.core.experiments"

#: Leg workloads: (target, [(operation, params)], invariants every
#: operation's output must satisfy).  Each leg receives the rep's seed.
LEG_WORKLOADS = {
    "fleet-steady": (
        f"{_LEGS}.fleet_legs:fleet_leg",
        [(f"fleet/{mode}", {"hosts": 256, "qp_mode": mode,
                            "rate_per_host": 4.0, "size_mean_mib": 64.0})
         for mode in ("pooled", "per-job")],
        ("conserved", "converged"),
    ),
    "service-numa": (
        f"{_LEGS}.service_legs:service_leg",
        [(f"service/{policy}", {"hosts": 4, "policy": policy,
                                "rate_per_host": 55.0, "duration": 20.0,
                                "size_mean_mib": 128.0})
         for policy in ("numa-aware", "numa-blind", "fifo")],
        ("conserved",),
    ),
    "availability-faults": (
        f"{_LEGS}.availability_legs:availability_leg",
        [(f"availability/{name}", {"hosts": 256, "fault_rate": 0.5,
                                   "journal": journal})
         for name, journal in (("journal", True), ("amnesiac", False))],
        ("conserved", "converged", "audit_ok"),
    ),
}
#: Extensions left out of ``paper-figures``: they are the leg workloads.
PAPER_EXCLUDED = ("service", "fleet", "availability")
WORKLOADS = (*LEG_WORKLOADS, "paper-figures")


def load_tracer():
    """``trace.py`` beside this file (by path: the name shadows a stdlib module)."""
    spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    """Canonical JSON of a leg output (numpy scalars by repr)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def plan(workload: str, seed: int):
    """``[(operation, run)]``, where ``run()`` returns ``(text, invariants)``."""
    from repro.exec import SimTask, run_tasks

    if workload == "paper-figures":
        from repro.core import experiments as E

        ops = []
        for registry in (E.ALL_FIGURES, E.ALL_ABLATIONS, E.ALL_EXTENSIONS):
            for name, module in registry.items():
                if name in PAPER_EXCLUDED:
                    continue

                def run(module=module):
                    report = module.run(quick=False, seed=seed)
                    return report.render(), {"all_ok": report.all_ok}

                ops.append((name, run))
        return ops

    target, legs, invariants = LEG_WORKLOADS[workload]
    ops = []
    for name, params in legs:
        task = SimTask(target, params, seed=seed, label=name)

        def run(task=task):
            out = run_tasks([task])[0]
            return canonical(out), {k: bool(out.get(k)) for k in invariants}

        ops.append((name, run))
    return ops


def counters() -> dict:
    """Exact process-wide program counters (deltas are taken around a pass)."""
    from repro.exec import GangStats
    from repro.service.broker import ServiceStats
    from repro.sim.engine import Simulator
    from repro.sim.fluid import FluidStats
    from repro.sim.shard import ShardStats

    out = {"events": Simulator.events_processed_total}
    for prefix, totals in (("fluid", FluidStats.process_totals()),
                           ("service", ServiceStats.process_totals()),
                           ("shard", ShardStats.process_totals()),
                           ("gang", GangStats.process_totals())):
        out.update({f"{prefix}.{k}": v for k, v in totals.items()})
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started (``VmHWM``).

    Not ``ru_maxrss``: on Linux that also counts the resident set of the
    parent at the moment it spawned this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(ops, cache) -> tuple:
    """Run every operation once; ``(wall_s, {op: seconds}, {op: (text, inv)})``."""
    from repro.exec import executor

    times, outputs = {}, {}
    start = time.perf_counter()
    with executor(jobs=1, cache=cache):
        for name, run in ops:
            t = time.perf_counter()
            outputs[name] = run()
            times[name] = time.perf_counter() - t
    return time.perf_counter() - start, times, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import repro
    import repro.core.experiments  # noqa: F401  (set-up cost: every module)
    from repro.exec import ResultCache, code_fingerprint

    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    t_import = time.perf_counter()
    code_fingerprint()
    t_fingerprint = time.perf_counter()
    ops = plan(args.workload, args.seed)
    cache = ResultCache(args.cache_dir)
    t_plan = time.perf_counter()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup": {"import_s": t_import - T0,
                  "fingerprint_s": t_fingerprint - t_import,
                  "plan_s": t_plan - t_fingerprint,
                  "setup_s": t_plan - T0},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__},
    }
    if not args.setup_only:
        spans = undo = None
        if args.trace:
            tracer = load_tracer()
            spans = tracer.Spans()
            undo = tracer.install(spans)
        before = counters()
        cold_s, op_s, cold = run_pass(ops, cache)
        after = counters()
        if undo is not None:
            undo()
        record.update({
            "cold_s": cold_s,
            "op_cold_s": op_s,
            "counters": {k: after[k] - before[k] for k in after},
            "cache": cache.stats.as_dict(),
            "ops": [{"name": name, "digest": digest(text),
                     "invariants": inv}
                    for name, (text, inv) in cold.items()],
        })
        if spans is not None:
            record["spans"] = {"rows": spans.tree(),
                               "layers": spans.layer_totals(),
                               "entries": spans.entry_table(),
                               "covered_s": spans.self_seconds()}
        elif args.warm:
            warm_s, _, warm = run_pass(ops, cache)
            record["warm_s"] = warm_s
            for op in record["ops"]:
                op["warm_digest"] = digest(warm[op["name"]][0])
        record["peak_rss_mb"] = peak_rss_mb()
    pathlib.Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
