"""Extension E2 benchmark: the sensitivity grid, gang vs per-task.

The ±20% perturbation grid is the library's densest sweep and the gang
subsystem's flagship workload: every cell shares the grid's structure
and differs only in one calibration constant, so the runner batches the
whole grid through the sensitivity gang kernel
(:func:`repro.core.sensitivity.gang_cells`).  The per-task side ("off")
runs the same cells with their ``GangSpec`` stripped, one event-kernel
task at a time.

Both sides run cold (no result cache), interleaved so machine-load
drift hits both; each is scored by its best wall.  The checks hold the
two modes to *byte-identical* rendered reports — gang execution is a
pure wall-clock optimisation — plus the grid's own shape checks and the
deterministic gang accounting (every cell ganged, nothing defected).

The in-test speedup floor is conservative (CI machines are noisy);
refresh the committed baseline with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_ext_sensitivity.py
    cp benchmarks/results/ext_sensitivity.json benchmarks/baselines/
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

from repro import metrics
from repro.config import RunConfig
from repro.core.experiments import ext_sensitivity
from repro.exec import run_tasks
from repro.sim.engine import Simulator

def _min_speedup(quick: bool) -> float:
    """The in-test wall-clock floor for gang vs per-task.

    The gang kernel's end-to-end win is read-set dedup across cells, so
    it scales with how many cells *don't* read the perturbed constant.
    The quick grid deliberately perturbs the most widely-read constants
    (that is what makes it a good smoke), so almost every leg re-runs
    and the honest quick floor is only "not slower"; the full grid adds
    the narrowly-read constants and the dedup win shows (~1.7x measured,
    floored conservatively — CI machines are noisy).
    """
    default = "0.90" if quick else "1.25"
    return float(os.environ.get("REPRO_GANG_BENCH_MIN_SPEEDUP", default))


def _run_once(mode: str, quick: bool) -> dict:
    """One cold run of the grid, ganged ("auto") or per-task ("off");
    observables + wall."""
    counts_before = metrics.snapshot()
    events_before = Simulator.events_processed_total
    t0 = time.perf_counter()
    tasks = ext_sensitivity.plan(quick=quick)
    if mode == "off":
        tasks = [replace(t, gang=None) for t in tasks]
    report = ext_sensitivity.assemble(run_tasks(tasks), quick=quick)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "events": Simulator.events_processed_total - events_before,
        "report": report,
        "text": report.render(),
        "gang": metrics.delta(counts_before)["gang"],
    }


def test_ext_sensitivity_gang(results_dir):
    quick = not RunConfig.from_env().full
    min_speedup = _min_speedup(quick)
    n_cells = len(ext_sensitivity.plan(quick=quick))

    runs = {"off": [], "auto": []}
    for _ in range(3):
        for mode in ("off", "auto"):
            runs[mode].append(_run_once(mode, quick))
    off, auto = runs["off"][0], runs["auto"][0]
    wall_off = min(r["wall"] for r in runs["off"])
    wall_auto = min(r["wall"] for r in runs["auto"])
    speedup = wall_off / wall_auto if wall_auto > 0 else 0.0

    identical = off["text"] == auto["text"]
    ganged = auto["gang"]["scenarios_ganged"]
    defected = auto["gang"]["scenarios_defected"]
    report = auto["report"]
    checks = [
        {"metric": c.metric, "paper": repr(c.paper),
         "measured": repr(c.measured), "ok": c.ok}
        for c in report.checks
    ] + [
        {"metric": "gang-vs-off reports identical", "paper": repr(True),
         "measured": repr(identical), "ok": identical},
        {"metric": "grid cells ganged", "paper": repr(n_cells),
         "measured": repr(ganged), "ok": ganged == n_cells},
        {"metric": "grid cells defected", "paper": repr(0),
         "measured": repr(defected), "ok": defected == 0},
    ]
    all_ok = all(c["ok"] for c in checks)

    payload = {
        "name": "ext_sensitivity",
        "experiment_id": report.experiment_id,
        "quick": quick,
        "ops": auto["events"],
        "wall_seconds": wall_auto,
        "events_per_sec": auto["events"] / wall_auto if wall_auto > 0 else 0.0,
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": checks,
        # Gang extras (ignored by the gate, kept for humans):
        "wall_off": wall_off,
        "wall_auto": wall_auto,
        "speedup": speedup,
        "grid_cells": n_cells,
        "gang": auto["gang"],
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "ext_sensitivity.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (results_dir / "ext_sensitivity.txt").write_text(auto["text"] + "\n")
    print()
    print(auto["text"])
    print(f"\nsensitivity grid ({n_cells} cells): off {wall_off:.2f}s, "
          f"gang {wall_auto:.2f}s -> {speedup:.2f}x "
          f"(ganged {ganged}, defected {defected})")

    assert all_ok, "gang run diverged: " + ", ".join(
        f"{c['metric']} (expected={c['paper']}, measured={c['measured']})"
        for c in checks if not c["ok"]
    )
    assert speedup >= min_speedup, (
        f"gang speedup {speedup:.2f}x below floor {min_speedup:.2f}x "
        f"(off {wall_off:.4f}s, auto {wall_auto:.4f}s)"
    )
