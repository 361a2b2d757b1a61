"""Gang execution: grouping, defection, cache identity, projection dedup.

The contract under test mirrors the executor's: a task's ``GangSpec``
changes *how* a grid computes — one batched scenario program vs one
task at a time — never what it computes.  Every oracle here is the same
task list with the spec stripped (:func:`_per_task`), which the runner
executes one task at a time.  Gang and per-task runs must be
indistinguishable down to the bytes of the assembled report, gang
membership must be invisible to the result cache, and anything a kernel
cannot batch exactly (ambient faults, broken kernels, singleton groups)
must defect to the per-task path with zero behavior change.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.core.calibration import CALIBRATION, tracking_calibration
from repro.core.experiments import ext_sensitivity
from repro.core.sensitivity import (
    assemble_sensitivity,
    gang_cells,
    run_sensitivity,
    sensitivity_tasks,
)
from repro.exec import (
    DEFECT,
    ExecContext,
    GangSpec,
    GangStats,
    ResultCache,
    SimTask,
    executor,
    gang_calgrid,
    run_tasks,
)
from repro.exec.gang import EvalError, run_projected
from repro.faults.plan import FaultPlan

#: A plan the per-task path arms and every gang kernel defects on.
PLAN = FaultPlan.parse("link-down@link:1,at=5,duration=2")


def scale_leg(*, seed, cal, factor):
    """Cheap calgrid target: reads one constant, scales it."""
    return cal.qpi_bandwidth * factor + seed


def _gang_delta(fn):
    """Run *fn*, return the GangStats delta it produced."""
    before = GangStats.process_totals()
    out = fn()
    after = GangStats.process_totals()
    return out, {k: after[k] - before[k] for k in after}


def _per_task(tasks):
    """The same tasks without gang metadata: the per-task oracle."""
    return [replace(t, gang=None) for t in tasks]


def _calgrid_tasks(n=4, factor=2.0):
    """n gang-eligible tasks differing only in calibration."""
    return [
        gang_calgrid(SimTask("tests.test_gang_exec:scale_leg",
                             {"factor": factor}, seed=3,
                             cal=CALIBRATION.replace(qpi_bandwidth=1e9 + i)))
        for i in range(n)
    ]


# -- grouping and defection in run_tasks ------------------------------------

def test_calgrid_gang_matches_per_task_bitwise():
    tasks = _calgrid_tasks(5)
    solo = run_tasks(_per_task(tasks))
    (ganged, delta) = _gang_delta(lambda: run_tasks(tasks))
    assert ganged == solo == [t.execute() for t in tasks]
    assert delta["scenarios_ganged"] == 5
    assert delta["scenarios_defected"] == 0
    assert delta["groups"] == 1


def test_singleton_group_runs_solo():
    tasks = _calgrid_tasks(1)
    (results, delta) = _gang_delta(lambda: run_tasks(tasks))
    assert results == [tasks[0].execute()]
    assert delta["scenarios_solo"] == 1
    assert delta["scenarios_ganged"] == 0
    assert delta["groups"] == 0


def test_ambient_fault_plan_defects_whole_group():
    tasks = [replace(t, faults=PLAN) for t in _calgrid_tasks(4)]
    (results, delta) = _gang_delta(lambda: run_tasks(tasks))
    assert results == [t.execute() for t in tasks]
    assert delta["scenarios_defected"] == 4
    assert delta["scenarios_ganged"] == 0


def test_sensitivity_kernel_defects_under_a_fault_plan():
    tasks = [replace(t, faults=PLAN)
             for t in sensitivity_tasks(constants=("qpi_bandwidth",))]
    assert gang_cells(tasks) == [DEFECT] * len(tasks)


def broken_kernel(tasks):
    raise RuntimeError("kernel exploded")


def short_kernel(tasks):
    return [DEFECT] * (len(tasks) - 1)


@pytest.mark.parametrize("kernel", ["broken_kernel", "short_kernel"])
def test_broken_kernel_defects_instead_of_breaking(kernel):
    spec = GangSpec(kernel=f"tests.test_gang_exec:{kernel}", key="k")
    tasks = [SimTask("tests.test_gang_exec:scale_leg", {"factor": float(1 + i)},
                     seed=i, cal=CALIBRATION, gang=spec) for i in range(3)]
    (results, delta) = _gang_delta(lambda: run_tasks(tasks))
    assert results == [t.execute() for t in tasks]
    assert delta["scenarios_defected"] == 3
    assert delta["scenarios_ganged"] == 0


def test_gang_off_never_invokes_kernel():
    # Tasks without a GangSpec never reach a kernel: every gang counter
    # stays at zero.
    tasks = _per_task(_calgrid_tasks(3))
    (_, delta) = _gang_delta(lambda: run_tasks(tasks))
    assert all(v == 0 for v in delta.values())


# -- cache identity ---------------------------------------------------------

def test_gang_membership_excluded_from_identity():
    plain = SimTask("tests.test_gang_exec:scale_leg", {"factor": 2.0}, seed=1)
    ganged = gang_calgrid(plain)
    assert ganged.gang is not None
    assert ganged.identity() == plain.identity()
    assert ganged.cache_key("f" * 16) == plain.cache_key("f" * 16)


def test_partially_cached_grid_gangs_only_the_misses(tmp_path):
    tasks = _calgrid_tasks(6)
    cache = ResultCache(tmp_path / "cache")
    # Warm the cache with two scenarios run solo (no gang metadata).
    with executor(cache=cache):
        warm = run_tasks(_per_task(tasks[:2]))
    assert cache.stats.stores == 2

    (results, delta) = _gang_delta(
        lambda: run_tasks(tasks, ExecContext(cache=cache)))
    assert results[:2] == warm
    assert results == [t.execute() for t in tasks]
    assert cache.stats.hits == 2
    assert delta["scenarios_ganged"] == 4  # only the misses ganged
    assert delta["scenarios_defected"] == 0


def test_cache_entry_records_gang_provenance(tmp_path):
    tasks = _calgrid_tasks(2)
    cache = ResultCache(tmp_path / "cache")
    run_tasks(tasks, ExecContext(cache=cache))
    path = cache._path(cache.key_for(tasks[0]))
    assert pickle.loads(path.read_bytes())["via"] == "gang"
    # Provenance is informational: the solo path replays the entry.
    hit, value = cache.get(tasks[0])
    assert hit and value == tasks[0].execute()


def test_cache_entry_without_via_key_still_loads(tmp_path):
    task = SimTask("tests.test_gang_exec:scale_leg", {"factor": 2.0}, seed=1)
    cache = ResultCache(tmp_path / "cache")
    key = cache.key_for(task)
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"key": key, "result": 42.0}))
    hit, value = cache.get(task)
    assert hit and value == 42.0


# -- the projection machinery ----------------------------------------------

def test_run_projected_shares_only_provably_equal_scenarios():
    evals = []

    def leg(cal):
        evals.append(1)
        return cal.qpi_bandwidth * 2.0

    base = CALIBRATION
    cals = [
        base,
        base.replace(memcpy_rate_local=1.0),  # unread constant: shares
        base.replace(qpi_bandwidth=5e9),      # read constant: re-runs
        base.replace(qpi_bandwidth=5e9),      # same projection: shares
    ]
    values = run_projected(leg, cals)
    assert values == [base.qpi_bandwidth * 2.0, base.qpi_bandwidth * 2.0,
                      1e10, 1e10]
    assert len(evals) == 2


def test_run_projected_failures_never_shared():
    calls = []

    def leg(cal):
        calls.append(1)
        raise ValueError("leg failed")

    values = run_projected(leg, [CALIBRATION, CALIBRATION])
    assert all(isinstance(v, EvalError) for v in values)
    assert len(calls) == 2  # an identical later scenario re-runs, re-fails


def test_replace_on_tracked_calibration_marks_carried_fields():
    import dataclasses

    reads: set = set()
    tracked = tracking_calibration(CALIBRATION, reads)
    tracked.replace(qpi_bandwidth=1.0)
    # replace() reads every field it carries over, so the projection
    # covers them all; the overridden field's old value is (correctly)
    # not marked — the result cannot depend on it.
    assert reads == {f.name for f in dataclasses.fields(CALIBRATION)} - {
        "qpi_bandwidth"}


# -- the sensitivity grid end to end ---------------------------------------

def test_sensitivity_grid_gang_matches_per_task():
    constants = ("qpi_bandwidth", "memcpy_rate_local")
    tasks = _per_task(sensitivity_tasks(constants=constants))
    solo = assemble_sensitivity(tasks, run_tasks(tasks))
    (ganged, delta) = _gang_delta(lambda: run_sensitivity(constants=constants))
    assert ganged.outcomes == solo.outcomes
    assert delta["scenarios_ganged"] == 4
    assert delta["scenarios_defected"] == 0


def test_ext_sensitivity_report_byte_identical_gang_vs_off():
    tasks = ext_sensitivity.plan(quick=True)
    off = ext_sensitivity.assemble(run_tasks(_per_task(tasks)), quick=True)
    auto = ext_sensitivity.run(quick=True)
    assert auto.render() == off.render()


# -- the fingerprint memo ---------------------------------------------------

def test_code_fingerprint_memoized_per_process(monkeypatch):
    from repro.exec import fingerprint as fp

    value = fp.code_fingerprint()
    original = fp._package_root
    calls = []

    def counting_root():
        calls.append(1)
        return original()

    monkeypatch.setattr(fp, "_package_root", counting_root)
    monkeypatch.setattr(fp, "_DEFAULT", None)
    assert fp.code_fingerprint() == value
    assert fp.code_fingerprint() == value
    assert len(calls) == 1  # resolved once, memoized thereafter
    # pytest restores the module globals; the pre-test memo survives in
    # the next call via the untouched lru_cache on _fingerprint_of.
