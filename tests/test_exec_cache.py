"""Tests for the content-addressed result cache (`repro.exec`).

Covers key stability, every invalidation axis the cache promises
(calibration field, seed, params, code fingerprint), and recovery from
corrupt or truncated on-disk entries.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.calibration import CALIBRATION
from repro.exec import ExecContext, ResultCache, SimTask, code_fingerprint, run_tasks

#: execution log for the probe target below (serial runs mutate in-process).
PROBE_CALLS: list[str] = []


def probe_task(*, seed, cal, tag, factor=1.0):
    """A tiny deterministic SimTask target for cache/runner tests."""
    PROBE_CALLS.append(tag)
    qpi = (cal if cal is not None else CALIBRATION).qpi_bandwidth
    return {"tag": tag, "seed": seed, "value": qpi * factor}


TARGET = "tests.test_exec_cache:probe_task"


def make_task(tag="t", seed=0, cal=None, **extra):
    return SimTask(TARGET, {"tag": tag, **extra}, seed=seed, cal=cal)


# -- identity / key ----------------------------------------------------------------


def test_key_stable_across_param_order(tmp_path):
    cache = ResultCache(tmp_path)
    a = SimTask(TARGET, {"tag": "x", "factor": 2.0})
    b = SimTask(TARGET, {"factor": 2.0, "tag": "x"})
    assert cache.key_for(a) == cache.key_for(b)


def test_key_ignores_label(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.key_for(make_task()) == cache.key_for(
        SimTask(TARGET, {"tag": "t"}, label="pretty name"))


def test_key_changes_with_seed_params_target(tmp_path):
    cache = ResultCache(tmp_path)
    base = cache.key_for(make_task())
    assert cache.key_for(make_task(seed=1)) != base
    assert cache.key_for(make_task(factor=3.0)) != base
    assert cache.key_for(
        SimTask("tests.test_exec_cache:other_fn", {"tag": "t"})) != base


def test_key_changes_with_any_calibration_field(tmp_path):
    cache = ResultCache(tmp_path)
    base = cache.key_for(make_task(cal=CALIBRATION))
    for field_name in ("qpi_bandwidth", "rftp_credits_per_stream",
                       "ssd_cooldown_seconds"):
        value = getattr(CALIBRATION, field_name)
        perturbed = CALIBRATION.replace(**{field_name: value * 2})
        assert cache.key_for(make_task(cal=perturbed)) != base, field_name


def test_identity_keys_are_exactly_the_result_inputs():
    # One kernel, no backend switches: nothing but the task's own inputs,
    # the ambient fault plan and the format version keys a cache entry.
    identity = json.loads(make_task().identity())
    assert set(identity) == {"target", "params", "seed", "cal", "faults", "v"}


def test_key_changes_with_code_fingerprint(tmp_path):
    a = ResultCache(tmp_path, fingerprint="aaaa")
    b = ResultCache(tmp_path, fingerprint="bbbb")
    task = make_task()
    assert a.key_for(task) != b.key_for(task)


def test_bad_target_rejected():
    with pytest.raises(ValueError):
        SimTask("no_colon_here", {})


def test_non_canonical_params_rejected(tmp_path):
    task = SimTask(TARGET, {"tag": object()})
    with pytest.raises(TypeError):
        ResultCache(tmp_path).key_for(task)


def test_code_fingerprint_tracks_source(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "m.py").write_text("x = 1\n")
    (tmp_path / "b" / "m.py").write_text("x = 2\n")
    assert code_fingerprint(tmp_path / "a") != code_fingerprint(tmp_path / "b")
    assert code_fingerprint(tmp_path / "a") == code_fingerprint(tmp_path / "a")
    # The library's own fingerprint is memoized and stable in-process.
    assert code_fingerprint() == code_fingerprint()


# -- hit / miss / invalidation through the runner -----------------------------------


def test_cache_hit_skips_execution_and_equals_fresh_run(tmp_path):
    cache = ResultCache(tmp_path)
    tasks = [make_task("a"), make_task("b", factor=2.0)]
    PROBE_CALLS.clear()
    fresh = run_tasks(tasks, ExecContext(jobs=1, cache=cache))
    assert PROBE_CALLS == ["a", "b"]
    assert cache.stats.misses == 2 and cache.stats.stores == 2

    warm = run_tasks(tasks, ExecContext(jobs=1, cache=cache))
    assert PROBE_CALLS == ["a", "b"]  # nothing re-executed
    assert warm == fresh
    assert cache.stats.hits == 2


def test_calibration_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    run_tasks([make_task(cal=CALIBRATION)], ExecContext(cache=cache))
    perturbed = CALIBRATION.replace(qpi_bandwidth=CALIBRATION.qpi_bandwidth * 1.2)
    PROBE_CALLS.clear()
    result, = run_tasks([make_task(cal=perturbed)], ExecContext(cache=cache))
    assert PROBE_CALLS == ["t"]  # recomputed, not served stale
    assert result["value"] == pytest.approx(CALIBRATION.qpi_bandwidth * 1.2)


def test_seed_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    run_tasks([make_task(seed=0)], ExecContext(cache=cache))
    PROBE_CALLS.clear()
    run_tasks([make_task(seed=7)], ExecContext(cache=cache))
    assert PROBE_CALLS == ["t"]


def test_fingerprint_change_misses(tmp_path):
    old = ResultCache(tmp_path, fingerprint="code-v1")
    run_tasks([make_task()], ExecContext(cache=old))
    new = ResultCache(tmp_path, fingerprint="code-v2")
    PROBE_CALLS.clear()
    run_tasks([make_task()], ExecContext(cache=new))
    assert PROBE_CALLS == ["t"]
    assert new.stats.misses == 1 and new.stats.hits == 0


def test_dedup_within_one_batch(tmp_path):
    cache = ResultCache(tmp_path)
    tasks = [make_task("same"), make_task("same"), make_task("same")]
    PROBE_CALLS.clear()
    results = run_tasks(tasks, ExecContext(cache=cache))
    assert PROBE_CALLS == ["same"]  # identical tasks execute once
    assert results[0] == results[1] == results[2]
    assert cache.stats.stores == 1


# -- corrupt entries ---------------------------------------------------------------


def _entry_files(tmp_path):
    return sorted(tmp_path.rglob("*.pkl"))


def test_corrupt_entry_discarded_and_recomputed(tmp_path):
    cache = ResultCache(tmp_path)
    task = make_task()
    run_tasks([task], ExecContext(cache=cache))
    entry, = _entry_files(tmp_path)
    entry.write_bytes(b"this is not a pickle")

    PROBE_CALLS.clear()
    result, = run_tasks([task], ExecContext(cache=cache))
    assert PROBE_CALLS == ["t"]
    assert cache.stats.discarded == 1
    # ...and the rewritten entry serves the next lookup.
    hit, value = cache.get(task)
    assert hit and value == result


def test_truncated_entry_discarded(tmp_path):
    cache = ResultCache(tmp_path)
    task = make_task()
    run_tasks([task], ExecContext(cache=cache))
    entry, = _entry_files(tmp_path)
    entry.write_bytes(entry.read_bytes()[:10])

    hit, _ = cache.get(task)
    assert not hit
    assert cache.stats.discarded == 1
    assert not _entry_files(tmp_path)  # the broken file was deleted


def test_key_mismatch_entry_discarded(tmp_path):
    cache = ResultCache(tmp_path)
    task = make_task()
    path = cache._path(cache.key_for(task))
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"key": "somebody-else", "result": 42}))

    hit, _ = cache.get(task)
    assert not hit and cache.stats.discarded == 1


def test_put_failure_is_nonfatal(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the cache dir should be")
    cache = ResultCache(target / "sub")
    cache.put(make_task(), {"x": 1})  # must not raise
    assert cache.stats.stores == 0
