"""The benchmark regression gate fails loudly, never silently.

``scripts/check_bench_regression.py`` is CI's last line of defence: a
corrupt baseline or an ungated result file must fail the build with the
benchmark's name in the output, not degrade into a skipped comparison.
These tests drive the script in-process (``main(argv)``) against
temporary result/baseline trees.  ``scripts/bench_summary.py`` — the
folded ``BENCH_report.json`` CI artifact — gets the same treatment.
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
