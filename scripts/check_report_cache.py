#!/usr/bin/env python3
"""Result-cache smoke gate for CI.

Takes the ``--stats-json`` files of two back-to-back
``python -m repro report`` invocations sharing one cache directory and
asserts the cache did its job:

* the **cold** run computed something (misses > 0) and stored it;
* the **warm** run was served entirely from cache — zero misses, zero
  simulations executed, every task a hit;
* the warm run was at least ``--speedup`` times faster wall-clock
  (default 2.0);
* the cold run's layer counters include the work its worker processes
  did: a non-null ``service`` section and ``fluid.rebalances > 0`` (the
  full ledger runs the broker and the fluid allocator in every mode).

Usage::

    python scripts/check_report_cache.py cold.json warm.json [--speedup 2.0]

Exit status: 0 = gate passes, 1 = cache ineffective or worker counters
lost, 2 = bad invocation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cold", type=pathlib.Path,
                        help="stats JSON of the first (cold-cache) run")
    parser.add_argument("warm", type=pathlib.Path,
                        help="stats JSON of the second (warm-cache) run")
    parser.add_argument("--speedup", type=float, default=2.0,
                        help="required cold/warm wall-clock ratio (default 2.0)")
    args = parser.parse_args(argv)

    try:
        cold = json.loads(args.cold.read_text())
        warm = json.loads(args.warm.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read stats files: {exc}")
        return 2
    if cold.get("cache") is None or warm.get("cache") is None:
        print("error: runs were made without a cache (--no-cache?)")
        return 2

    errors: list[str] = []
    if not cold["cache"]["misses"]:
        errors.append("cold run had no cache misses — was the cache dir dirty?")
    if warm["cache"]["misses"]:
        errors.append(f"warm run missed {warm['cache']['misses']} task(s)")
    if warm.get("executed"):
        errors.append(f"warm run re-executed {warm['executed']} simulation(s)")
    if cold.get("service") is None:
        errors.append("cold run counted no broker work — worker counters lost?")
    if not (cold.get("fluid") or {}).get("rebalances"):
        errors.append("cold run counted no fluid rebalances — worker counters lost?")
    if warm["cache"]["hits"] != warm["tasks"]:
        errors.append(
            f"warm run: {warm['cache']['hits']} hits != {warm['tasks']} tasks")

    ratio = (cold["wall_seconds"] / warm["wall_seconds"]
             if warm["wall_seconds"] > 0 else float("inf"))
    print(f"cold: {cold['wall_seconds']:.2f}s ({cold['cache']['misses']} misses), "
          f"warm: {warm['wall_seconds']:.2f}s ({warm['cache']['hits']} hits) "
          f"-> {ratio:.1f}x")
    if ratio < args.speedup:
        errors.append(
            f"warm run only {ratio:.2f}x faster (need >= {args.speedup:.1f}x)")

    for err in errors:
        print(f"FAIL: {err}")
    if not errors:
        print("OK: warm report was pure cache hits")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
