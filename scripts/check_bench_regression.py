#!/usr/bin/env python3
"""Benchmark regression gate.

Compares fresh benchmark JSON (written by ``benchmarks/conftest.py`` into
``benchmarks/results/``) against the committed baselines in
``benchmarks/baselines/`` and fails the build when either

* **correctness drifts** — any paper-anchored check value differs from the
  baseline, or a check flips its pass/fail status, or a metric
  appears/disappears; or
* **the gate itself is broken** — a baseline or fresh result file is
  missing or malformed JSON, or a result file has no committed baseline.
  These fail loudly with the benchmark's name: a gate that silently
  skips a corrupt baseline is a gate that never fires.

Wall time is not gated here: short quick-mode runs are too noisy to
judge, and the paper-scale benchmark of record (``benchmarks/e2e``,
compared with ``benchmarks/e2e/compare.py``) is where performance is
measured.  Usage::

    python scripts/check_bench_regression.py \
        [--results benchmarks/results] [--baselines benchmarks/baselines] \
        [--only NAME ...]

``--only`` judges just the named benchmarks (baseline stems, e.g.
``fig07``): the ones a CI job ran.  Their baselines must exist, and
results of other benchmarks left in the results directory by earlier
runs are ignored.  Without it every baseline and every result is
judged.

Exit status: 0 = gate passes, 1 = drift, 2 = bad invocation (e.g. no
baselines found).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_json(path: pathlib.Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


def load_result(path: pathlib.Path, name: str, role: str,
                errors: list[str]) -> dict | None:
    """Load one benchmark JSON; on failure, record a named error.

    Returns None when the file is unreadable, malformed, or not a JSON
    object — the caller skips the comparison and the run fails.
    """
    try:
        data = load_json(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        errors.append(f"{name}: malformed {role} at {path}: {exc}")
        return None
    if not isinstance(data, dict):
        errors.append(
            f"{name}: malformed {role} at {path}: expected a JSON object, "
            f"got {type(data).__name__}")
        return None
    return data


def compare_checks(name: str, baseline: dict, fresh: dict) -> list[str]:
    """Check-value drift errors between one baseline/fresh pair."""
    errors: list[str] = []
    base_checks = {c["metric"]: c for c in baseline.get("checks", [])}
    fresh_checks = {c["metric"]: c for c in fresh.get("checks", [])}

    for metric in base_checks.keys() - fresh_checks.keys():
        errors.append(f"{name}: check {metric!r} disappeared")
    for metric in fresh_checks.keys() - base_checks.keys():
        errors.append(f"{name}: unexpected new check {metric!r} (refresh the baseline)")
    for metric in base_checks.keys() & fresh_checks.keys():
        b, f = base_checks[metric], fresh_checks[metric]
        if b["measured"] != f["measured"]:
            errors.append(
                f"{name}: check {metric!r} drifted: "
                f"baseline measured {b['measured']} != fresh {f['measured']}"
            )
        if b["ok"] != f["ok"]:
            errors.append(
                f"{name}: check {metric!r} status changed: "
                f"baseline ok={b['ok']} != fresh ok={f['ok']}"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results",
        type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "results",
        help="directory with fresh <name>.json files",
    )
    parser.add_argument(
        "--baselines",
        type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory with committed baseline <name>.json files",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="judge only these benchmarks (baseline names without .json)",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baselines.glob("*.json"))
    if args.only is not None:
        missing = sorted(set(args.only) - {p.stem for p in baselines})
        if missing:
            print(f"error: no baseline under {args.baselines} for "
                  f"{', '.join(missing)}")
            return 2
        baselines = [p for p in baselines if p.stem in args.only]
    if not baselines:
        print(f"error: no baselines found under {args.baselines}")
        return 2

    errors: list[str] = []
    for base_path in baselines:
        name = base_path.stem
        fresh_path = args.results / base_path.name
        if not fresh_path.exists():
            errors.append(f"{name}: no fresh result at {fresh_path}")
            continue
        baseline = load_result(base_path, name, "baseline", errors)
        fresh = load_result(fresh_path, name, "fresh result", errors)
        if baseline is None or fresh is None:
            continue

        if fresh.get("all_ok") is not True:
            errors.append(f"{name}: fresh run reports all_ok={fresh.get('all_ok')!r}")
        drift = compare_checks(name, baseline, fresh)
        errors.extend(drift)
        print(f"{name}: {len(fresh.get('checks', []))} checks, "
              f"{'drift' if drift else 'no drift'}")

    # BENCH_report.json is bench_summary.py's fold over these results,
    # not a benchmark — it carries no checks of its own to gate.
    extra = set() if args.only is not None else {
        p.stem for p in args.results.glob("*.json")
        if p.name != "BENCH_report.json"} - {p.stem for p in baselines}
    for name in sorted(extra):
        errors.append(
            f"{name}: result has no committed baseline under "
            f"{args.baselines} (add one, or the benchmark is never gated)")

    if errors:
        print(f"\nFAIL: {len(errors)} drift(s) or broken gate input(s):")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(f"\nOK: {len(baselines)} benchmark(s), no check drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
