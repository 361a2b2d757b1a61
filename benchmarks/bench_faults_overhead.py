"""Fault-injector overhead: an armed-but-idle plan must be (nearly) free.

The fault subsystem rides inside every simulation context once a run
has a fault plan (``--faults`` / ``REPRO_FAULTS``), so its fault-free
cost matters: component registration at construction time, the
per-handshake injector lookup, and RFTP's recovery bookkeeping must not
tax runs whose plan never fires.  This benchmark runs the fig09
end-to-end experiment as a task twice — once fault-free, once carrying
a plan whose single fault is scheduled far beyond the simulated horizon
(armed, never fires) — and asserts

* contexts created in the armed arm carry an injector, and those in
  the fault-free arm do not (so the arms really differ),
* every paper-anchored check value is **identical** (the armed injector
  changes nothing observable), and
* the armed run's wall time is within a small fraction of the
  fault-free run's.

The in-test ceiling is deliberately looser than the 2% acceptance
target (CI machines are noisy); the committed baseline JSON records the
measured overhead from a quiet machine.  Refresh with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_faults_overhead.py
    cp benchmarks/results/faults_overhead.json benchmarks/baselines/
"""

from __future__ import annotations

import json
import os
import time

from repro import metrics
from repro.core.experiments import exp_fig09_e2e
from repro.exec import SimTask
from repro.faults.plan import FaultPlan
from repro.sim.context import Context

#: A valid plan whose only fault fires ~31 years into the simulation.
ARMED_IDLE_PLAN = "link-down@link:0,at=1e9"
#: Conservative in-test ceiling; the acceptance target is 2% (ISSUE 5).
MAX_OVERHEAD = float(os.environ.get("REPRO_FAULTS_BENCH_MAX_OVERHEAD", "0.10"))
ROUNDS = 3
#: fig09 quick runs per timed sample (one run is ~25 ms: amortize noise).
ITERS = 10


def timed_fig09(*, seed: int, cal) -> dict:
    """Task target: one timed sample (ITERS fig09 quick runs).

    Also reports whether a context created here carries an injector —
    the plan the task was armed with, or none.
    """
    armed = Context.create(seed=seed, cal=cal).faults is not None
    t0 = time.perf_counter()
    for _ in range(ITERS):
        report = exp_fig09_e2e.run(quick=True, seed=seed, cal=cal)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "armed": armed,
        "all_ok": report.all_ok,
        "checks": [(c.metric, repr(c.paper), repr(c.measured), c.ok)
                   for c in report.checks],
    }


def _run_once(plan: str | None) -> dict:
    """One timed sample in-process, armed with *plan* (None: fault-free)."""
    faults = FaultPlan.parse(plan) if plan is not None else None
    return SimTask(f"{__name__}:timed_fig09", faults=faults).execute()


def test_faults_overhead(results_dir):
    counts_before = metrics.snapshot()

    # Interleave repetitions so machine-load drift hits both arms; score
    # each arm by its best (least-disturbed) wall.
    runs = {"off": [], "armed": []}
    for _ in range(ROUNDS):
        runs["off"].append(_run_once(None))
        runs["armed"].append(_run_once(ARMED_IDLE_PLAN))
    off, armed = runs["off"][0], runs["armed"][0]
    wall_off = min(r["wall"] for r in runs["off"])
    wall_armed = min(r["wall"] for r in runs["armed"])
    overhead = wall_armed / wall_off - 1.0 if wall_off > 0 else float("inf")

    fired = metrics.delta(counts_before)["faults"]
    # ``armed`` counts contexts that armed the plan, not faults: every
    # other counter in the layer must stay at zero.
    nothing_fired = all(v == 0 for k, v in fired.items() if k != "armed")
    checks_identical = off["checks"] == armed["checks"]
    arms_differ = (all(r["armed"] for r in runs["armed"])
                   and not any(r["armed"] for r in runs["off"]))

    checks = [
        ("armed-arm-contexts-carry-an-injector", True, arms_differ,
         arms_differ),
        ("fig09-checks-identical-under-armed-plan", True, checks_identical,
         checks_identical),
        ("fig09-all-ok-both-arms", True, off["all_ok"] and armed["all_ok"],
         off["all_ok"] and armed["all_ok"]),
        ("no-fault-ever-fired", True, nothing_fired, nothing_fired),
    ]
    all_ok = all(ok for _, _, _, ok in checks)

    payload = {
        "name": "faults_overhead",
        "experiment_id": "faults-overhead",
        "quick": True,
        "ops": 0,
        "wall_seconds": wall_armed,
        "events_per_sec": 0.0,  # wall-ratio benchmark; not events-gated
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": [
            {"metric": m, "paper": repr(p), "measured": repr(v), "ok": ok}
            for m, p, v, ok in checks
        ],
        # Microbenchmark extras (ignored by the gate, kept for humans):
        "wall_off": wall_off,
        "wall_armed": wall_armed,
        "overhead_fraction": overhead,
        "plan": ARMED_IDLE_PLAN,
        "rounds": ROUNDS,
        "iters": ITERS,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "faults_overhead.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nfault-injector overhead: off {wall_off * 1e3:.0f} ms, "
          f"armed {wall_armed * 1e3:.0f} ms -> {overhead:+.1%} "
          f"(ceiling {MAX_OVERHEAD:.0%})")

    assert all_ok, "armed-but-idle injector changed results: " + ", ".join(
        f"{m} (expected={p!r}, measured={v!r})"
        for m, p, v, ok in checks if not ok
    )
    assert overhead < MAX_OVERHEAD, (
        f"armed-but-idle fault injector costs {overhead:.1%} "
        f"(ceiling {MAX_OVERHEAD:.0%}; off {wall_off:.3f}s, "
        f"armed {wall_armed:.3f}s)"
    )


# --- journal arm ------------------------------------------------------------------
#
# The write-ahead job journal exists only while a fault injector is
# armed (``BrokerConfig.journal`` is a gate, not an allocation): with no
# injector the journal field must stay None and ``journal=True`` must be
# indistinguishable — in results and in wall time — from
# ``journal=False``.  This is the fault-free-cost gate for the
# crash-tolerant control plane.

#: Journal arm's own ceiling: the code path difference is one attribute
#: check, so "~0%" — but wall clocks are noisy, share the faults ceiling.
JOURNAL_ROUNDS = 3
JOURNAL_ITERS = 6


def _broker_run_once(journal: bool) -> dict:
    """One timed sample: a served broker workload, no injector anywhere."""
    from repro.service import (BrokerConfig, RailFleet, TransferBroker,
                               WorkloadConfig)
    from repro.util.units import MIB

    t0 = time.perf_counter()
    for _ in range(JOURNAL_ITERS):
        ctx = Context.create(seed=23)
        fleet = RailFleet(ctx, n_hosts=2)
        broker = TransferBroker(
            ctx, fleet, BrokerConfig(journal=journal),
            workload=WorkloadConfig(rate=60.0, size_mean=64 * MIB))
        broker.serve()
        ctx.sim.run(until=8.0)
        broker.drain()
        ctx.sim.run(until=12.0)
        summary = broker.summary()
        journal_absent = broker.journal is None
    wall = time.perf_counter() - t0
    return {"wall": wall, "summary": summary,
            "journal_absent": journal_absent}


def test_journal_overhead_without_injector(results_dir):
    runs = {"off": [], "on": []}
    for _ in range(JOURNAL_ROUNDS):
        runs["off"].append(_broker_run_once(journal=False))
        runs["on"].append(_broker_run_once(journal=True))
    off, on = runs["off"][0], runs["on"][0]
    wall_off = min(r["wall"] for r in runs["off"])
    wall_on = min(r["wall"] for r in runs["on"])
    overhead = wall_on / wall_off - 1.0 if wall_off > 0 else float("inf")

    identical = off["summary"] == on["summary"]
    gated_off = all(r["journal_absent"] for rs in runs.values() for r in rs)

    checks = [
        ("broker-summary-identical-with-journal-enabled", True, identical,
         identical),
        ("journal-never-materializes-without-injector", True, gated_off,
         gated_off),
    ]
    all_ok = all(ok for _, _, _, ok in checks)

    payload = {
        "name": "journal_overhead",
        "experiment_id": "journal-overhead",
        "quick": True,
        "ops": 0,
        "wall_seconds": wall_on,
        "events_per_sec": 0.0,  # wall-ratio benchmark; not events-gated
        "jobs": 1,
        "cache": None,
        "all_ok": all_ok,
        "checks": [
            {"metric": m, "paper": repr(p), "measured": repr(v), "ok": ok}
            for m, p, v, ok in checks
        ],
        "wall_off": wall_off,
        "wall_on": wall_on,
        "overhead_fraction": overhead,
        "rounds": JOURNAL_ROUNDS,
        "iters": JOURNAL_ITERS,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "journal_overhead.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(f"\njournal (no injector) overhead: off {wall_off * 1e3:.0f} ms, "
          f"on {wall_on * 1e3:.0f} ms -> {overhead:+.1%} "
          f"(ceiling {MAX_OVERHEAD:.0%})")

    assert all_ok, "journal=True perturbed a fault-free run: " + ", ".join(
        f"{m} (expected={p!r}, measured={v!r})"
        for m, p, v, ok in checks if not ok
    )
    assert overhead < MAX_OVERHEAD, (
        f"unarmed journal gate costs {overhead:.1%} "
        f"(ceiling {MAX_OVERHEAD:.0%}; off {wall_off:.3f}s, "
        f"on {wall_on:.3f}s)"
    )
