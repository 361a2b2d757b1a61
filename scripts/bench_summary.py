#!/usr/bin/env python3
"""Fold all benchmark result JSONs into one ``BENCH_report.json``.

Every benchmark run (``benchmarks/conftest.py`` and the hand-rolled
micro-benchmarks) drops a ``benchmarks/results/<name>.json`` with the
same core fields (``name``, ``wall_seconds``, ``events_per_sec``,
``all_ok``, ``checks``, plus per-bench extras).
This script collects them into a single artifact so one file per CI run
tracks the perf trajectory across PRs::

    python scripts/bench_summary.py \
        [--results benchmarks/results] [-o BENCH_report.json]

The report carries, per benchmark: wall seconds, events/sec and check
pass counts — plus fleet-wide totals.  Performance claims are made on
the paper-scale benchmark of record (``benchmarks/e2e``), not here.  Missing result files are not an error (CI jobs run different
benchmark subsets); an empty results directory is (the artifact would
be vacuous).

Exit status: 0 = report written, 1 = a result file is malformed,
2 = no results found / bad invocation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def summarize_one(path: pathlib.Path, errors: list[str]) -> dict | None:
    """One result file -> one summary row (None and an error if bad)."""
    try:
        with path.open() as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        errors.append(f"{path.name}: malformed result: {exc}")
        return None
    if not isinstance(data, dict):
        errors.append(f"{path.name}: expected a JSON object, "
                      f"got {type(data).__name__}")
        return None
    checks = data.get("checks") or []
    row = {
        "name": data.get("name", path.stem),
        "experiment_id": data.get("experiment_id"),
        "wall_seconds": data.get("wall_seconds"),
        "events_per_sec": data.get("events_per_sec"),
        "ops": data.get("ops"),
        "quick": data.get("quick"),
        "jobs": data.get("jobs"),
        "all_ok": data.get("all_ok"),
        "checks_total": len(checks),
        "checks_failed": sum(1 for c in checks
                             if isinstance(c, dict) and c.get("ok") is False),
    }
    return row


def build_report(results: pathlib.Path, errors: list[str]) -> dict | None:
    # The folded report itself defaults into the results directory; a
    # rerun must not ingest its own output.
    files = sorted(f for f in results.glob("*.json")
                   if f.name != "BENCH_report.json")
    if not files:
        errors.append(f"no benchmark results under {results}")
        return None
    rows = [row for f in files
            if (row := summarize_one(f, errors)) is not None]
    walls = [r["wall_seconds"] for r in rows
             if isinstance(r["wall_seconds"], (int, float))]
    return {
        "benchmarks": rows,
        "totals": {
            "benchmarks": len(rows),
            "wall_seconds": sum(walls),
            "all_ok": all(r["all_ok"] is not False for r in rows),
            "checks_total": sum(r["checks_total"] for r in rows),
            "checks_failed": sum(r["checks_failed"] for r in rows),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fold benchmarks/results/*.json into one report")
    parser.add_argument(
        "--results", type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "results",
        help="directory of fresh benchmark JSONs")
    parser.add_argument(
        "-o", "--output", type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "results" / "BENCH_report.json",
        help="where to write the folded report")
    args = parser.parse_args(argv)

    if not args.results.is_dir():
        print(f"bench summary: results directory not found: {args.results}",
              file=sys.stderr)
        return 2

    errors: list[str] = []
    report = build_report(args.results, errors)
    if report is None:
        for err in errors:
            print(f"bench summary: {err}", file=sys.stderr)
        return 2

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    totals = report["totals"]
    print(f"bench summary: {totals['benchmarks']} benchmarks, "
          f"{totals['wall_seconds']:.2f} s total wall, "
          f"{totals['checks_failed']}/{totals['checks_total']} checks failed "
          f"-> {args.output}")
    for err in errors:
        print(f"bench summary: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
