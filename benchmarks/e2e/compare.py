"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a results JSON written by ``run.py`` (a full invocation or
one ``--workload`` run), or ``{"invocations": [results, ...]}`` such as
``baseline_seed0.json``.  Each invocation contributes its median, so
file *i* of the parent pairs with file *i* of the change.  One row per
(workload, end-to-end metric) gives both sides' median and quartiles
(over the invocations, or over one invocation's reps when a side has
only one) and a verdict:

* ``improved`` — at least 10 pairs, the change wins at least 9 of every
  10 (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — a side's interquartile range is wider than the bound,
  unless every change value beats every parent value;
* ``same`` — otherwise.

It also prints both sides' median host reference-loop time, recorded by
``run.py``: results from a host running at a different speed are not
comparable.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list) -> list:
    """Every invocation in *paths*, in order."""
    out = []
    for path in paths:
        data = json.loads(pathlib.Path(path).read_text())
        out.extend(data["invocations"] if "invocations" in data else [data])
    return out


def side(invocations: list, workload: str, metric: str):
    """``(medians, (p25, median, p75), spec)`` or None when absent."""
    rows = [inv["workloads"][workload]["end_to_end"][metric]
            for inv in invocations
            if metric in inv["workloads"].get(workload, {}).get("end_to_end",
                                                                 {})]
    if not rows:
        return None
    medians = [r["median"] for r in rows]
    if len(rows) == 1:
        spread = (rows[0]["p25"], rows[0]["median"], rows[0]["p75"])
    else:
        p25, p50, p75 = statistics.quantiles(medians, n=4)
        spread = (p25, p50, p75)
    return medians, spread, rows[0]


def _rel_spread(q: tuple) -> float:
    iqr = q[2] - q[0]
    if q[1] == 0:
        return 0.0 if iqr == 0 else float("inf")
    return iqr / abs(q[1])


def verdict(parent: list, pq: tuple, change: list, cq: tuple,
            better: str, bound: float) -> tuple:
    """``(verdict, wins, pairs)`` for one (workload, metric)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gap = sign * (cq[1] - pq[1])  # > 0: the change is worse
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and -gap > pq[2] - pq[0]):
        return "improved", wins, len(pairs)
    if gap > bound * abs(pq[1]):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(_rel_spread(pq), _rel_spread(cq)) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def compare(parent: list, change: list) -> list:
    """One row per (workload, metric) present on both sides."""
    rows = []
    metrics = {}  # (workload, metric) in first-seen order
    for inv in parent:
        for workload, result in inv["workloads"].items():
            for metric in result["end_to_end"]:
                metrics[(workload, metric)] = None
    for workload, metric in metrics:
        p = side(parent, workload, metric)
        c = side(change, workload, metric)
        if c is None:
            continue
        spec = p[2]
        v, wins, pairs = verdict(p[0], p[1], c[0], c[1], spec["better"],
                                 spec["bound"])
        rows.append({"workload": workload, "metric": metric,
                     "unit": spec["unit"], "bound": spec["bound"],
                     "parent": p[1], "change": c[1], "wins": wins,
                     "pairs": pairs, "verdict": v})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    rows = compare(parent, change)
    print(f"{'workload':<20}{'metric':<13}{'unit':>6}{'bound':>7}"
          f"{'parent median [p25, p75]':>34}{'change median [p25, p75]':>34}"
          f"{'wins':>8}  verdict")
    for r in rows:
        p, c = (f"{q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}]"
                for q in (r["parent"], r["change"]))
        print(f"{r['workload']:<20}{r['metric']:<13}{r['unit']:>6}"
              f"{r['bound']:>+7.0%}{p:>34}{c:>34}"
              f"{r['wins']:>5}/{r['pairs']:<2}  {r['verdict']}")
    refs = [host_ref(parent), host_ref(change)]
    if None not in refs:
        print(f"host reference loop (median): parent {refs[0]:.3f} s, "
              f"change {refs[1]:.3f} s")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def host_ref(invocations: list):
    """Median host reference-loop time over *invocations* (None if unrecorded)."""
    values = [v for inv in invocations
              for v in inv.get("meta", {}).get("host_ref_s", [])]
    return statistics.median(values) if values else None


if __name__ == "__main__":
    sys.exit(main())
