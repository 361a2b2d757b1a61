"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import worker

tracer = worker.load_tracer()
SPEC = json.loads(run.SPEC.read_text())


# -- span accumulator ---------------------------------------------------------------

def _clock():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    return (lambda: now[0]), advance


def test_self_time_nested_same_layer_calls():
    clock, advance = _clock()
    spans = tracer.Spans(clock)
    inner = spans.wrap("a", "inner", lambda: advance(1.0))
    leaf = spans.wrap("b", "leaf", lambda: advance(2.0))

    def body(depth):
        advance(1.0)
        if depth:
            outer(depth - 1)  # the same entry point, nested
        inner()
        leaf()
        advance(0.5)

    outer = spans.wrap("a", "outer", body)
    outer(1)

    # outer(1) = 1 + outer(0) [4.5] + 1 + 2 + 0.5 = 9.0 seconds.
    assert spans.rows[("a", None)] == [1, 9.0, 1.5]
    assert spans.rows[("a", "a")] == [3, 4.5 + 1.0 + 1.0, 1.5 + 1.0 + 1.0]
    assert spans.rows[("b", "a")] == [2, 4.0, 4.0]
    assert spans.self_seconds() == pytest.approx(9.0)
    totals = spans.layer_totals()
    assert totals["a"] == {"calls": 4, "self_s": 5.0}
    assert totals["b"] == {"calls": 2, "self_s": 4.0}
    entries = spans.entry_table()
    assert entries["outer"] == {"calls": 2, "total_s": 13.5, "self_s": 3.0,
                                "outer_s": 9.0}
    assert entries["inner"]["outer_s"] == 2.0


def test_self_time_traced_generator():
    clock, advance = _clock()
    spans = tracer.Spans(clock)

    def gen():
        advance(1.0)
        yield "x"
        advance(2.0)
        yield "y"
        advance(3.0)

    traced = spans.wrap_generator("workload", "gen", gen)
    g = traced()
    assert g.__name__ == "gen"

    def drive():
        advance(0.25)
        return list(g)

    engine = spans.wrap("engine", "run", drive)
    assert engine() == ["x", "y"]
    # Three resumptions (the last raises StopIteration), all in `engine`.
    assert spans.rows[("workload", "engine")] == [3, 6.0, 6.0]
    assert spans.rows[("engine", None)] == [1, 6.25, 0.25]
    assert spans.self_seconds() == pytest.approx(6.25)


def test_install_restores_entry_points():
    from repro.service.broker import TransferBroker
    from repro.sim.engine import Simulator

    run_before = Simulator.run
    submit_before = TransferBroker.submit
    undo = tracer.install(tracer.Spans())
    assert Simulator.run is not run_before
    undo()
    assert Simulator.run is run_before
    assert TransferBroker.submit is submit_before


# -- the program under trace ----------------------------------------------------------

def test_traced_and_untraced_fleet_leg_digests_match():
    from repro.core.experiments.fleet_legs import fleet_leg

    params = dict(seed=0, cal=None, hosts=16, qp_mode="pooled",
                  rate_per_host=4.0, size_mean_mib=64.0)
    plain = worker.digest(worker.canonical(fleet_leg(**params)))
    spans = tracer.Spans()
    undo = tracer.install(spans)
    try:
        traced = worker.digest(worker.canonical(fleet_leg(**params)))
    finally:
        undo()
    assert traced == plain
    layers = spans.layer_totals()
    for layer in ("engine", "fluid", "broker", "workload", "scheduler",
                  "fleet", "qpool", "shard"):
        assert layers[layer]["calls"] > 0, layer


# -- results and BENCHMARK.json -----------------------------------------------------

def _records(workload, digests):
    """A synthetic untraced and traced rep with the given op digests."""
    counters = {k: 1 for k in worker.counters()}
    ops = [{"name": name, "digest": d, "warm_digest": d,
            "invariants": {"conserved": True}} for name, d in digests.items()]
    untraced = {"traced": False, "cold_s": 2.0, "warm_s": 0.5,
                "peak_rss_mb": 60.0, "ops": ops,
                "op_cold_s": {name: 0.1 for name in digests},
                "setup": {"import_s": 0.2, "fingerprint_s": 0.01,
                          "plan_s": 0.001, "setup_s": 0.211}}
    traced = {**untraced, "traced": True, "cold_s": 2.4,
              "ops": [{k: v for k, v in op.items() if k != "warm_digest"}
                      for op in ops],
              "counters": counters,
              "cache": {"hits": 0, "misses": 2, "stores": 2},
              "spans": {"rows": [{"layer": "engine", "parent": None,
                                  "calls": 1, "total_s": 2.3, "self_s": 2.3}],
                        "layers": {"engine": {"calls": 1, "self_s": 2.3}},
                        "entries": {}, "covered_s": 2.3}}
    return untraced, traced


def test_result_keys_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    untraced, traced = _records("fleet-steady", {"fleet/pooled": "0" * 64})
    result = run.summarize("fleet-steady", [untraced], [traced], [], None)
    assert [m["name"] for m in run.end_to_end_specs()] == list(
        result["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["end_to_end"][m["name"]]["unit"] == m["unit"]
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert m["name"] in result["per_layer"], m["name"]
        assert result["per_layer"][m["name"]]["unit"] == m["unit"], m["name"]


def test_corrupted_reference_digest_fails():
    reference = json.loads(run.reference_path(0).read_text())["digests"]
    digests = reference["fleet-steady"]
    untraced, traced = _records("fleet-steady", digests)
    ok = run.summarize("fleet-steady", [untraced], [traced], [], reference)
    assert ok["end_to_end"]["failed_frac"]["median"] == 0.0

    corrupted = {**reference,
                 "fleet-steady": {**digests, "fleet/pooled": "f" * 64}}
    bad = run.summarize("fleet-steady", [untraced], [traced], [], corrupted)
    assert bad["failed"] == 2  # the op in both the untraced and traced rep
    assert bad["end_to_end"]["failed_frac"]["median"] > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fleet-steady", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- compare.py ---------------------------------------------------------------------

@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0] * 10, [11.5] * 10, "worse"),
    ([10.0, 10.1] * 5, [10.05] * 10, "same"),
    ([8.0, 12.0] * 5, [10.0] * 10, "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    def q(values):
        return compare.statistics.quantiles(values, n=4) if len(
            set(values)) > 1 else [values[0]] * 3

    got, _wins, _pairs = compare.verdict(parent, tuple(q(parent)), change,
                                         tuple(q(change)), "lower", 0.10)
    assert got == expected
