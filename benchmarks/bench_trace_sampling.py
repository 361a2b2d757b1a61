"""Sampler microbenchmark: paper-scale fig13 + fig14 under backfill sampling.

Runs the paper-scale (``quick=False``) fig13 + fig14 WAN sweeps — the
most probe-dense experiments in the repository (a block-size x streams
grid, each cell carrying a 1 Hz throughput probe over 300 simulated
seconds) — ``INNER`` times per timed leg so the wall is long enough to
time reliably, keeping the best of ``REPS`` legs.

The checks are every fig13/fig14 paper-vs-measured value plus the exact
number of samples the hub backfilled per run, which the regression
gate compares with the committed baseline.  Every inner run must
measure the same values.  Refresh the baseline with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_trace_sampling.py
    cp benchmarks/results/trace_sampling.json benchmarks/baselines/
"""

from __future__ import annotations

import json
import time

from repro import metrics
from repro.core.experiments import exp_fig13_wan_bw, exp_fig14_wan_cpu
from repro.sim import Simulator

#: Full-scale fig13+fig14 runs per timed leg (stacks ~30-100 ms walls
#: into something a wall clock can resolve).
INNER = 4
#: Timed repetitions; the payload keeps the best (least-disturbed) wall.
REPS = 3
SEED = 20130417  # same vintage as bench_fluid_solver; any fixed value works


def _run_leg() -> dict:
    """INNER paper-scale fig13+fig14 runs."""
    events_before = Simulator.events_processed_total
    counts_before = metrics.snapshot()
    reports = []
    t0 = time.perf_counter()
    for _ in range(INNER):
        reports.append(exp_fig13_wan_bw.run(quick=False, seed=SEED % 1000))
        reports.append(exp_fig14_wan_cpu.run(quick=False, seed=SEED % 1000))
    wall = time.perf_counter() - t0
    sampler = metrics.delta(counts_before)["sampler"]
    values = [[(c.metric, repr(c.measured)) for c in r.checks]
              for r in reports]
    assert values[0::2] == values[:1] * INNER, "fig13 nondeterministic"
    assert values[1::2] == values[1:2] * INNER, "fig14 nondeterministic"
    return {
        "wall": wall,
        "events": Simulator.events_processed_total - events_before,
        "backfilled": sampler["samples_backfilled"],
        "reports": reports[:2],
    }


def test_trace_sampling_backfill(results_dir):
    runs = [_run_leg() for _ in range(REPS)]
    leg = runs[0]
    wall = min(r["wall"] for r in runs)

    per_run = leg["backfilled"] // INNER
    checks = [
        (f"{r.experiment_id}: {c.metric}", c.paper, c.measured,
         c.ok is not False)
        for r in leg["reports"] for c in r.checks
    ]
    checks.append(("samples-backfilled-per-run", "> 0", per_run,
                   per_run > 0))
    all_ok = all(ok for _, _, _, ok in checks)

    payload = {
        "name": "trace_sampling",
        "experiment_id": "trace-sampling-backfill",
        "quick": False,
        "ops": leg["events"],
        "wall_seconds": wall,
        "events_per_sec": leg["events"] / wall if wall > 0 else 0.0,
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": [
            {"metric": m, "paper": repr(p), "measured": repr(v), "ok": ok}
            for m, p, v, ok in checks
        ],
        "inner_runs": INNER,
        "samples_backfilled": leg["backfilled"],
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "trace_sampling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\ntrace sampling (fig13+fig14 full x{INNER}): "
          f"{wall * 1e3:.1f} ms ({per_run} samples backfilled per run)")

    assert all_ok, "diverging checks: " + ", ".join(
        m for m, _, _, ok in checks if not ok)
