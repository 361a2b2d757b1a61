"""Determinism of the parallel executor and the cached report pipeline.

The contract under test: ``jobs`` and cache state change *where* a
simulation runs and *whether* it re-runs — never its result.  Serial,
process-pool and cache-served executions of the same task list must be
indistinguishable, down to the bytes of EXPERIMENTS.md.
"""

from __future__ import annotations

import json

from repro import metrics
from repro.__main__ import main
from repro.core.reportgen import generate_experiments_md
from repro.core.sensitivity import run_sensitivity
from repro.exec import ExecContext, ResultCache, SimTask, executor, run_tasks

#: experiments with multi-leg plans plus a single-task module — enough to
#: exercise fan-out, dedup and fallback without running the whole ledger.
SUBSET = ("table1", "fig09", "fig10", "fig11")


def echo_task(*, seed, cal, tag):
    """Order-probe target: returns its own tag and seed."""
    return (tag, seed)


def test_run_tasks_preserves_task_order_under_fanout():
    tasks = [SimTask("tests.test_exec_parallel:echo_task", {"tag": i}, seed=i)
             for i in range(12)]
    serial = run_tasks(tasks, ExecContext(jobs=1))
    fanned = run_tasks(tasks, ExecContext(jobs=3))
    assert serial == [(i, i) for i in range(12)]
    assert fanned == serial


def test_generate_experiments_md_parallel_is_byte_identical():
    serial = generate_experiments_md(quick=True)
    parallel = generate_experiments_md(quick=True, jobs=2)
    assert parallel == serial


def test_report_cache_hits_reproduce_fresh_run(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    fresh = generate_experiments_md(quick=True, only=SUBSET, cache=cache)
    assert fresh == generate_experiments_md(quick=True, only=SUBSET)
    # fig09+fig10 share their GridFTP leg and fig10+fig11 their RFTP leg,
    # so fewer unique simulations run than tasks were planned.
    assert cache.stats.misses > cache.stats.stores > 0

    stats: dict = {}
    warm = generate_experiments_md(quick=True, only=SUBSET, cache=cache,
                                   stats=stats)
    assert warm == fresh
    assert stats["executed"] == 0
    assert stats["cache"]["hits"] == stats["tasks"]
    assert cache.stats.misses == stats["tasks"]  # unchanged by the warm run


def test_sensitivity_grid_parallel_matches_serial():
    constants = ("qpi_bandwidth",)
    serial = run_sensitivity(constants=constants)
    with executor(jobs=2):
        fanned = run_sensitivity(constants=constants)
    assert fanned.outcomes == serial.outcomes
    assert set(fanned.outcomes) == {("qpi_bandwidth", "-20%"),
                                    ("qpi_bandwidth", "+20%")}


def test_layer_counters_include_worker_processes():
    """Footer counters count the same work whatever the worker count."""
    layers = {}
    for jobs in (1, 2):
        metrics.reset()
        stats: dict = {}
        generate_experiments_md(quick=True, only={"service", "fig09"},
                                jobs=jobs, cache=None, stats=stats)
        layers[jobs] = {layer: stats[layer] for layer in metrics.snapshot()}
    assert layers[2]["service"] is not None
    assert layers[2]["fluid"]["rebalances"] > 0
    assert layers[1] == layers[2]


def test_cli_report_jobs_and_cache_flags(tmp_path, capsys):
    out1, out2 = tmp_path / "EXP1.md", tmp_path / "EXP2.md"
    cache_dir = tmp_path / "cache"
    stats1, stats2 = tmp_path / "s1.json", tmp_path / "s2.json"

    assert main(["report", "-o", str(out1), "--jobs", "2",
                 "--cache-dir", str(cache_dir),
                 "--stats-json", str(stats1)]) == 0
    footer = capsys.readouterr().out
    assert "jobs=2" in footer and "misses" in footer and "wall=" in footer

    assert main(["report", "-o", str(out2), "--jobs", "2",
                 "--cache-dir", str(cache_dir),
                 "--stats-json", str(stats2)]) == 0
    capsys.readouterr()

    assert out1.read_text() == out2.read_text()
    cold = json.loads(stats1.read_text())
    warm = json.loads(stats2.read_text())
    assert cold["cache"]["misses"] == cold["tasks"] > 0
    assert warm["cache"]["misses"] == 0
    assert warm["cache"]["hits"] == warm["tasks"] == cold["tasks"]
    assert warm["executed"] == 0


def test_cli_report_no_cache(tmp_path, capsys):
    out = tmp_path / "EXP.md"
    assert main(["report", "-o", str(out), "--no-cache",
                 "--cache-dir", str(tmp_path / "never-created")]) == 0
    assert "cache: disabled" in capsys.readouterr().out
    assert not (tmp_path / "never-created").exists()
    assert "Scorecard" in out.read_text()
