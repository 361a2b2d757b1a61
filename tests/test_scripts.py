"""The benchmark regression gate fails loudly, never silently.

``scripts/check_bench_regression.py`` is CI's last line of defence: a
corrupt baseline or an ungated result file must fail the build with the
benchmark's name in the output, not degrade into a skipped comparison.
These tests drive the script in-process (``main(argv)``) against
temporary result/baseline trees.  ``scripts/bench_summary.py`` — the
folded ``BENCH_report.json`` CI artifact — and
``scripts/check_report_cache.py`` — the parallel report smoke gate — get
the same treatment.
"""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (pathlib.Path(__file__).resolve().parent.parent
           / "scripts" / "check_bench_regression.py")

_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _result(events_per_sec=1000.0, all_ok=True, checks=()):
    return {
        "all_ok": all_ok,
        "events_per_sec": events_per_sec,
        "checks": list(checks),
    }


def _write(path: pathlib.Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data) if not isinstance(data, str) else data)


@pytest.fixture
def tree(tmp_path):
    """Matching baseline/fresh pair for one healthy benchmark."""
    baselines = tmp_path / "baselines"
    results = tmp_path / "results"
    _write(baselines / "fig99.json", _result())
    _write(results / "fig99.json", _result())
    return baselines, results


def _run(baselines, results, capsys):
    rc = gate.main(["--baselines", str(baselines), "--results", str(results)])
    return rc, capsys.readouterr().out


def test_gate_passes_on_matching_tree(tree, capsys):
    baselines, results = tree
    rc, out = _run(baselines, results, capsys)
    assert rc == 0
    assert "OK" in out


def test_malformed_baseline_fails_and_names_benchmark(tree, capsys):
    baselines, results = tree
    _write(baselines / "fig99.json", "{not json")
    rc, out = _run(baselines, results, capsys)
    assert rc != 0
    assert "fig99" in out
    assert "malformed baseline" in out


def test_malformed_fresh_result_fails_and_names_benchmark(tree, capsys):
    baselines, results = tree
    _write(results / "fig99.json", '["a", "list"]')
    rc, out = _run(baselines, results, capsys)
    assert rc != 0
    assert "fig99" in out
    assert "malformed fresh result" in out


def test_result_without_baseline_fails_and_names_benchmark(tree, capsys):
    baselines, results = tree
    _write(results / "fig42.json", _result())
    rc, out = _run(baselines, results, capsys)
    assert rc != 0
    assert "fig42" in out
    assert "no committed baseline" in out


def test_missing_fresh_result_fails_and_names_benchmark(tree, capsys):
    baselines, results = tree
    (results / "fig99.json").unlink()
    rc, out = _run(baselines, results, capsys)
    assert rc != 0
    assert "fig99" in out
    assert "no fresh result" in out


def test_empty_baselines_dir_is_a_bad_invocation(tmp_path, capsys):
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    results = tmp_path / "results"
    results.mkdir()
    rc, out = _run(baselines, results, capsys)
    assert rc == 2
    assert "no baselines" in out


def test_events_per_sec_drop_is_not_gated(tree, capsys):
    # Events/sec on a quick run rewards adding events; the gate judges
    # check values only, and the retired --tolerance knob is rejected.
    baselines, results = tree
    _write(results / "fig99.json", _result(events_per_sec=100.0))
    rc, out = _run(baselines, results, capsys)
    assert rc == 0
    with pytest.raises(SystemExit) as exc:
        gate.main(["--baselines", str(baselines), "--results", str(results),
                   "--tolerance", "0.25"])
    assert exc.value.code == 2


def test_folded_report_is_not_gated(tree, capsys):
    # bench_summary.py's fold lands next to the results; it is an
    # artifact over them, not an ungated benchmark.
    baselines, results = tree
    _write(results / "BENCH_report.json", {"benchmarks": [], "totals": {}})
    rc, out = _run(baselines, results, capsys)
    assert rc == 0


def test_check_drift_still_fails(tree, capsys):
    baselines, results = tree
    check_b = {"metric": "goodput", "measured": 10, "ok": True}
    check_f = {"metric": "goodput", "measured": 11, "ok": True}
    _write(baselines / "fig99.json", _result(checks=[check_b]))
    _write(results / "fig99.json", _result(checks=[check_f]))
    rc, out = _run(baselines, results, capsys)
    assert rc == 1
    assert "drifted" in out


# --- bench_summary: the folded CI artifact -------------------------------------

_SUMMARY = _SCRIPT.parent / "bench_summary.py"
_sspec = importlib.util.spec_from_file_location("bench_summary", _SUMMARY)
summary = importlib.util.module_from_spec(_sspec)
_sspec.loader.exec_module(summary)


def _summary_run(results, output, capsys):
    rc = summary.main(["--results", str(results), "-o", str(output)])
    return rc, capsys.readouterr()


def test_summary_folds_results(tmp_path, capsys):
    results = tmp_path / "results"
    _write(results / "fig99.json",
           _result(checks=[{"metric": "goodput", "ok": True}]) |
           {"name": "fig99", "wall_seconds": 1.5})
    _write(results / "churn99.json",
           _result() | {"name": "churn99", "wall_seconds": 0.5,
                        "speedup": 4.2})
    out_path = tmp_path / "BENCH_report.json"
    rc, cap = _summary_run(results, out_path, capsys)
    assert rc == 0
    report = json.loads(out_path.read_text())
    rows = {r["name"]: r for r in report["benchmarks"]}
    assert set(rows) == {"fig99", "churn99"}
    assert "speedup" not in rows["churn99"]  # extras are not folded
    assert report["totals"] == {
        "benchmarks": 2, "wall_seconds": 2.0, "all_ok": True,
        "checks_total": 1, "checks_failed": 0}
    assert "2 benchmarks" in cap.out


def test_summary_rerun_skips_its_own_output(tmp_path, capsys):
    results = tmp_path / "results"
    _write(results / "fig99.json", _result() | {"wall_seconds": 1.0})
    out_path = results / "BENCH_report.json"
    for _ in range(2):  # second pass must not ingest the report itself
        rc, _cap = _summary_run(results, out_path, capsys)
        assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["totals"]["benchmarks"] == 1


def test_summary_flags_malformed_result_but_still_reports(tmp_path, capsys):
    results = tmp_path / "results"
    _write(results / "fig99.json", _result() | {"wall_seconds": 1.0})
    _write(results / "broken.json", "{not json")
    out_path = tmp_path / "BENCH_report.json"
    rc, cap = _summary_run(results, out_path, capsys)
    assert rc == 1
    assert "broken.json" in cap.err
    assert json.loads(out_path.read_text())["totals"]["benchmarks"] == 1


def test_summary_empty_results_dir_is_an_error(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    rc, cap = _summary_run(results, tmp_path / "out.json", capsys)
    assert rc == 2
    assert "no benchmark results" in cap.err


# --- check_report_cache: the parallel report + cache smoke gate --------------

_CACHE_GATE = _SCRIPT.parent / "check_report_cache.py"
_cspec = importlib.util.spec_from_file_location("check_report_cache",
                                                _CACHE_GATE)
cache_gate = importlib.util.module_from_spec(_cspec)
_cspec.loader.exec_module(cache_gate)


def _report_stats(hits, misses, executed, wall, **layers):
    return {"tasks": 4, "executed": executed, "wall_seconds": wall,
            "cache": {"hits": hits, "misses": misses},
            "fluid": {"rebalances": 7}, "service": {"submitted": 3}} | layers


def _cache_gate_run(tmp_path, cold):
    _write(tmp_path / "cold.json", cold)
    _write(tmp_path / "warm.json", _report_stats(4, 0, 0, 1.0))
    return cache_gate.main([str(tmp_path / "cold.json"),
                            str(tmp_path / "warm.json")])


def test_cache_gate_passes_with_worker_counters(tmp_path, capsys):
    assert _cache_gate_run(tmp_path, _report_stats(0, 4, 4, 5.0)) == 0


@pytest.mark.parametrize("layers", [{"service": None},
                                    {"fluid": {"rebalances": 0}}])
def test_cache_gate_fails_when_worker_counters_are_lost(tmp_path, capsys,
                                                         layers):
    cold = _report_stats(0, 4, 4, 5.0, **layers)
    assert _cache_gate_run(tmp_path, cold) == 1
    assert "worker counters lost" in capsys.readouterr().out


# --- reachability: the AST-vs-reached diff -----------------------------------

_REACH = _SCRIPT.parent / "reachability.py"
_rspec = importlib.util.spec_from_file_location("reachability", _REACH)
reach = importlib.util.module_from_spec(_rspec)
_rspec.loader.exec_module(reach)

_MOD = '''\
import functools


def used():
    return 1


@functools.lru_cache
def decorated():
    return 2


class Box:
    def method(self):
        def inner():
            return 3
        return inner()

    def dead(self):
        def dead_inner():
            return 4
        return dead_inner()
'''


@pytest.fixture
def pkg(tmp_path):
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "sub" / "__init__.py").write_text("def helper():\n    pass\n")
    (root / "sub" / "mod.py").write_text(_MOD)
    return root


def test_reachability_lists_every_def_with_its_code_line(pkg):
    fns = {fn.qualname: fn for fn in reach.functions(pkg)}
    assert set(fns) == {"helper", "used", "decorated", "Box.method",
                        "Box.method.<locals>.inner", "Box.dead",
                        "Box.dead.<locals>.dead_inner"}
    assert fns["helper"].path == "pkg/sub/__init__.py"
    # the key line is the code object's first line: the decorator's
    spec = importlib.util.spec_from_file_location("mod", pkg / "sub" / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert fns["decorated"].line == mod.decorated.__wrapped__.__code__.co_firstlineno
    assert fns["used"].line == mod.used.__code__.co_firstlineno
    assert fns["Box.method.<locals>.inner"].outer == fns["Box.method"].key


def test_reachability_diff_and_report(pkg):
    defined = reach.functions(pkg)
    by_name = {fn.qualname: fn for fn in defined}
    reached = {by_name[q].key for q in
               ("used", "decorated", "Box.method", "Box.method.<locals>.inner")}
    missed = reach.unreached(defined, reached)
    assert [fn.qualname for fn in missed] == [
        "helper", "Box.dead", "Box.dead.<locals>.dead_inner"]
    text = reach.render(defined, reached)
    # dead_inner sits inside dead: its lines are not counted twice
    lines = by_name["helper"].lines + by_name["Box.dead"].lines
    assert text.splitlines()[0] == (
        f"reached 4 of 7 functions; 3 unreached ({lines} body lines)")
    assert "pkg/sub/mod.py  (2 functions, 4 lines)" in text
    assert "Box.dead.<locals>.dead_inner  (2)" in text
    assert "pkg/sub/__init__.py" in text


def test_reachability_reached_set_may_name_unknown_code(pkg):
    """Lambdas, comprehensions and other files' code never match a def."""
    defined = reach.functions(pkg)
    noise = {("pkg/sub/mod.py", 1, "<lambda>"), ("other.py", 4, "used")}
    assert len(reach.unreached(defined, noise)) == len(defined)
