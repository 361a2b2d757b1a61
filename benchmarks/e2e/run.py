"""Paper-scale end-to-end benchmark of record, with per-layer self time.

Full invocation (every workload, ``--reps`` untraced reps in rotating
order, then one traced rep per workload)::

    python3 benchmarks/e2e/run.py --seed 0

One workload for a fixed measuring time, printing one JSON line last
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``)::

    python3 benchmarks/e2e/run.py --workload fleet-steady --seed 3 --seconds 30 --trace 0

Every rep is a fresh, serial subprocess (``worker.py``) with every
``REPRO_*`` variable removed and BLAS threads pinned to 1.  Outputs are
checked in the parent: each operation's invariants, warm pass equal to
cold pass, every rep (traced or not) equal to the first, and, at a seed
with a committed ``reference_seed<N>.json``, equal to the reference.
Results go to ``.bench_build/e2e/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import worker

HERE, ROOT = worker.HERE, worker.ROOT
OUT_DIR = ROOT / ".bench_build" / "e2e"
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = worker.WORKLOADS
LAYERS = worker.load_tracer().LAYER_NAMES
#: failed/attempted has bound 0 (any increase is a regression).  It is
#: not in BENCHMARK.json, whose metrics must never read 0; the
#: ``--workload`` result line carries it as ``attempted``/``failed``.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower",
               "bound": 0.0}
#: A rep is one workload's cold + warm pass; none takes 30 s here.
REP_TIMEOUT_S = 150
#: Set-up samples per ``--workload`` run with ``--trace 0`` (reps + probes).
SETUP_SAMPLES = 7
MIN_REPS = 3


class RepFailed(RuntimeError):
    """A worker process exited non-zero or timed out."""


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def end_to_end_specs() -> list:
    """BENCHMARK.json's end-to-end metrics plus ``failed_frac``."""
    return [*load_spec()["end_to_end"], FAILED_FRAC]


def unit_of(name: str) -> str:
    """A metric's unit, from its name."""
    if name.endswith("_pct"):
        return "%"
    if ".ns_per_" in name:
        return "ns"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    return "count"


def quartiles(values: list) -> tuple:
    """``(p25, median, p75)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, p50, p75


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# -- running reps ------------------------------------------------------------

def pinned_env() -> dict:
    """Variables every rep gets, whatever the caller exported.

    No bytecode cache: set-up compiles the program from source on every
    rep, so it does not depend on what an earlier run left in ``src/``.
    """
    return {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": str(ROOT / "src")}


def child_env(tmp: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(pinned_env(), TMPDIR=str(tmp))
    return env


def environment() -> dict:
    """What the results depend on besides the code."""
    return {
        "removed": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "set": pinned_env(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def host_ref_s() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs now.

    Recorded beside the results, never used to adjust them: on a shared
    machine the host can run half as fast for minutes at a time, and two
    results are only comparable if this reads about the same for both.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i % 7
    return time.perf_counter() - t


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(workload: str, seed: int, traced: bool = False,
            setup_only: bool = False, warm: bool = False) -> dict:
    """One fresh worker process; returns its record.

    *warm* adds a warm pass after the cold one.  Only a workload's first
    untraced rep makes it: the warm pass checks the cache, not the host,
    and leaving it out of later reps fits more cold passes in a run.
    """
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(dir=OUT_DIR / "tmp"))
    try:
        cmd = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--cache-dir", str(tmp / "cache"),
               "--out", str(tmp / "record.json")]
        if traced:
            cmd.append("--trace")
        if warm:
            cmd.append("--warm")
        if setup_only:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(cmd, env=child_env(tmp), cwd=tmp,
                                  capture_output=True, text=True,
                                  timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RepFailed(f"{workload} rep timed out after "
                            f"{REP_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise RepFailed(f"{workload} rep exited {proc.returncode}:\n"
                            + proc.stderr[-4000:])
        return json.loads((tmp / "record.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- correctness ----------------------------------------------------------------

def reference_path(seed: int) -> pathlib.Path:
    return HERE / f"reference_seed{seed}.json"


def load_reference(seed: int) -> dict | None:
    path = reference_path(seed)
    return json.loads(path.read_text())["digests"] if path.is_file() else None


def check(workload: str, records: list, reference: dict | None) -> dict:
    """Count failed operations over every rep of *workload*.

    An operation fails if an invariant is false, its warm pass differs
    from its cold pass, its digest differs from the reference (when the
    seed has one) or, without a reference, from the first rep's.
    """
    expected = (reference.get(workload, {}) if reference is not None
                else {op["name"]: op["digest"] for op in records[0]["ops"]})
    attempted = failed = 0
    problems = []
    for rec in records:
        for op in rec["ops"]:
            attempted += 1
            why = [k for k, ok in op["invariants"].items() if not ok]
            if op.get("warm_digest", op["digest"]) != op["digest"]:
                why.append("warm != cold")
            if expected.get(op["name"]) != op["digest"]:
                why.append("digest != reference" if reference is not None
                           else "digest != first rep")
            if why:
                failed += 1
                kind = "traced" if rec["traced"] else "untraced"
                problems.append(f"{op['name']} ({kind}): {', '.join(why)}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "digests": {op["name"]: op["digest"] for op in records[0]["ops"]}}


# -- metrics ----------------------------------------------------------------------

def traced_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced rep."""
    wall = rec["cold_s"]
    c = rec["counters"]
    spans = rec["spans"]

    def own(layer):
        return spans["layers"].get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return spans["layers"].get(layer, {}).get("calls", 0)

    def entry(name, field):
        return spans["entries"].get(name, {}).get(field, 0)

    m = {f"{layer}.self_s": own(layer) for layer in LAYERS}
    m.update({f"{layer}.self_pct": 100.0 * own(layer) / wall
              for layer in LAYERS})
    recomputed, skipped = c["fluid.flows_recomputed"], c["fluid.flows_skipped"]
    picks = entry("broker.pick_rail", "calls")
    m.update({
        "engine.events": c["events"],
        "engine.ns_per_event": _per(own("engine"), c["events"], 1e9),
        "fluid.calls": calls("fluid"),
        "fluid.rebalances": c["fluid.rebalances"],
        "fluid.allocations": c["fluid.allocations"],
        "fluid.flows_recomputed": recomputed,
        "fluid.flows_skipped": skipped,
        "fluid.skip_ratio": _per(skipped, skipped + recomputed),
        "fluid.us_per_rebalance": _per(own("fluid"), c["fluid.rebalances"],
                                       1e6),
        "workload.arrivals": calls("workload"),
        "workload.us_per_arrival": _per(own("workload"), calls("workload"),
                                        1e6),
        "broker.calls": calls("broker"),
        "broker.us_per_job": _per(own("broker"), c["service.submitted"], 1e6),
        **{f"broker.{k}": c[f"service.{k}"]
           for k in ("completed", "shed", "rescheduled", "replayed", "lost",
                     "failed")},
        "scheduler.picks": picks,
        "scheduler.us_per_pick": _per(own("scheduler"), picks, 1e6),
        "fleet.build_s": entry("RailFleet.__init__", "total_s"),
        "fleet.builds": entry("RailFleet.__init__", "calls"),
        "qpool.acquires": entry("QpPoolSet.acquire", "calls"),
        "shard.cell_s": entry("shard.run_cell_slice", "outer_s"),
        "shard.rounds": c["shard.rounds"],
        "shard.cells_run": c["shard.cells_run"],
        # Final-round cells / cells run: every run of one workload has
        # the same cell count, so this is runs / rounds.
        "shard.useful_ratio": _per(c["shard.runs"], c["shard.rounds"]),
        "exec.cache_get_s": entry("ResultCache.get", "total_s"),
        "exec.cache_put_s": entry("ResultCache.put", "total_s"),
        "exec.hits": rec["cache"]["hits"],
        "exec.misses": rec["cache"]["misses"],
        "exec.stores": rec["cache"]["stores"],
        "exec.cached_share": _per(entry("SimTask.execute", "outer_s"), wall),
        "gang.scenarios_ganged": c["gang.scenarios_ganged"],
        "gang.scenarios_defected": c["gang.scenarios_defected"],
        "trace.unattributed_frac": (wall - spans["covered_s"]) / wall,
    })
    return m


def summarize(workload: str, untraced: list, traced: list, setups: list,
              reference: dict | None) -> dict:
    """Every metric of one workload from its reps."""
    verdict = check(workload, untraced + traced, reference)
    samples = {
        "wall_s": [r["cold_s"] for r in untraced],
        "setup_s": [r["setup"]["setup_s"] for r in untraced + setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "failed_frac": [verdict["failed"] / verdict["attempted"]],
    }
    end_to_end = {}
    for spec in end_to_end_specs():
        values = samples[spec["name"]]
        p25, median, p75 = quartiles(values)
        end_to_end[spec["name"]] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "median": median, "p25": p25,
            "p75": p75, "n": len(values), "samples": values}

    layer: dict = {}
    if traced:
        per_rep = [traced_metrics(r) for r in traced]
        layer = {k: statistics.median(m[k] for m in per_rep)
                 for k in per_rep[0]}
        layer["trace.overhead_frac"] = (
            statistics.median(r["cold_s"] for r in traced)
            / end_to_end["wall_s"]["median"] - 1.0)
    if untraced:
        layer["exec.warm_s"] = statistics.median(
            r["warm_s"] for r in untraced if "warm_s" in r)
        for phase in ("import_s", "fingerprint_s", "plan_s"):
            layer[f"setup.{phase}"] = statistics.median(
                r["setup"][phase] for r in untraced + setups)
        if workload == "paper-figures":
            for name in untraced[0]["op_cold_s"]:
                layer[f"exp.{name}.wall_s"] = statistics.median(
                    r["op_cold_s"][name] for r in untraced)
    return {"end_to_end": end_to_end,
            "per_layer": {k: {"unit": unit_of(k), "value": v}
                          for k, v in sorted(layer.items())},
            **verdict}


# -- output -----------------------------------------------------------------------

def print_workload(workload: str, result: dict, tree: list | None) -> None:
    print(f"\n== {workload}: {result['failed']}/{result['attempted']} "
          "operations failed ==")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    print(f"   {'metric':<14}{'unit':>7}{'median':>12}{'p25':>12}{'p75':>12}"
          f"{'n':>4}{'bound':>8}")
    for name, m in result["end_to_end"].items():
        print(f"   {name:<14}{m['unit']:>7}{m['median']:>12.4f}{m['p25']:>12.4f}"
              f"{m['p75']:>12.4f}{m['n']:>4}{m['bound']:>+8.0%}")
    for name, m in result["per_layer"].items():
        print(f"   {name:<36}{m['unit']:>7}{m['value']:>16.6g}")
    if tree:
        print(f"   {'layer':<11}{'parent':<11}{'calls':>10}{'total_s':>10}"
              f"{'self_s':>10}")
        for row in tree:
            print(f"   {row['layer']:<11}{row['parent'] or '-':<11}"
                  f"{row['calls']:>10}{row['total_s']:>10.4f}"
                  f"{row['self_s']:>10.4f}")


def write_json(path: pathlib.Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def meta(args, mode: str, versions: dict, host_ref: list) -> dict:
    return {"mode": mode, "seed": args.seed, "commit": git_commit(),
            **versions, "env": environment(), "argv": sys.argv[1:],
            "host_ref_s": host_ref}


# -- the two modes -------------------------------------------------------------

def run_full(args) -> int:
    """Every workload: ``--reps`` rotating untraced reps, one traced each."""
    reference = None if args.write_reference else load_reference(args.seed)
    run_rep(WORKLOADS[0], args.seed, setup_only=True)  # warm the file cache
    host_ref = [host_ref_s()]
    untraced = {w: [] for w in WORKLOADS}
    for rep in range(args.reps):
        for i in range(len(WORKLOADS)):
            w = WORKLOADS[(rep + i) % len(WORKLOADS)]
            untraced[w].append(run_rep(w, args.seed, warm=rep == 0))
            print(f"[rep {rep + 1}/{args.reps}] {w}: "
                  f"{untraced[w][-1]['cold_s']:.3f} s cold", flush=True)
    traced = {w: run_rep(w, args.seed, traced=True) for w in WORKLOADS}
    host_ref.append(host_ref_s())

    results, trees = {}, {}
    for w in WORKLOADS:
        results[w] = summarize(w, untraced[w], [traced[w]], [], reference)
        trees[w] = {"rows": traced[w]["spans"]["rows"],
                    "entries": traced[w]["spans"]["entries"],
                    "cold_s": traced[w]["cold_s"],
                    "covered_s": traced[w]["spans"]["covered_s"]}
        print_workload(w, results[w], trees[w]["rows"])

    versions = untraced[WORKLOADS[0]][0]["versions"]
    out = pathlib.Path(args.out or OUT_DIR / f"results-seed{args.seed}.json")
    write_json(out, {"meta": meta(args, "full", versions, host_ref),
                     "workloads": results})
    print(f"\nhost reference loop: {host_ref[0]:.3f} s before, "
          f"{host_ref[1]:.3f} s after")
    write_json(out.with_name("trace.json"), trees)
    print(f"\nresults: {out}\ntrace:   {out.with_name('trace.json')}")

    failed = sum(r["failed"] for r in results.values())
    if args.write_reference:
        if failed:
            print("not writing a reference: operations failed",
                  file=sys.stderr)
            return 1
        write_json(reference_path(args.seed), {
            "seed": args.seed,
            "digests": {w: r["digests"] for w, r in results.items()}})
        print(f"reference: {reference_path(args.seed)}")
    return 1 if failed else 0


def run_workload(args) -> int:
    """One workload for ``--seconds``; the last stdout line is the result."""
    spec = load_spec()
    reference = load_reference(args.seed)
    run_rep(args.workload, args.seed, setup_only=True)  # warm the file cache
    host_ref = [host_ref_s()]
    untraced, traced, setups, cost = [], [], [], {}

    def next_traced() -> bool:  # --trace 1 alternates, untraced first
        return bool(args.trace) and len(traced) < len(untraced)

    start = time.perf_counter()
    while True:
        kind = next_traced()
        t = time.perf_counter()
        (traced if kind else untraced).append(
            run_rep(args.workload, args.seed, traced=kind,
                    warm=not (kind or untraced)))
        cost[kind] = time.perf_counter() - t
        enough = bool(traced) if args.trace else len(untraced) >= MIN_REPS
        # Stop before a rep that would overrun the measuring time.
        after_next = (time.perf_counter() - start
                      + cost.get(next_traced(), cost[kind]))
        if enough and after_next > args.seconds:
            break
    if not args.trace:
        while len(untraced) + len(setups) < SETUP_SAMPLES:
            setups.append(run_rep(args.workload, args.seed, setup_only=True))
    host_ref.append(host_ref_s())

    result = summarize(args.workload, untraced, traced, setups, reference)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    table = result["per_layer"] if args.trace else {
        k: {"unit": m["unit"], "value": m["median"]}
        for k, m in result["end_to_end"].items()}
    metrics = {m["name"]: table[m["name"]] for m in names}
    write_json(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"meta": meta(args, "workload", untraced[0]["versions"],
                             host_ref),
                "workloads": {args.workload: result},
                "trace": traced[0]["spans"] if traced else None})
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload for --seconds and print "
                        "one JSON result line (default: full invocation)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced reps per workload (full invocation)")
    parser.add_argument("--out", help="results JSON (full invocation)")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference_seed<seed>.json from this run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.reps < 1 or args.seconds <= 0:
        parser.error("--reps and --seconds must be positive")
    if args.write_reference and args.workload:
        parser.error("--write-reference needs a full invocation "
                     "(no --workload)")
    try:
        return run_workload(args) if args.workload else run_full(args)
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
