"""Tests for the CLI (`python -m repro`) and the EXPERIMENTS.md generator."""

import os

import pytest

from repro.__main__ import main
from repro.core.reportgen import generate_experiments_md


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig09" in out and "ablation-ssd" in out and "ext-wan-e2e" in out


def test_cli_run_single(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "OK" in out


def test_cli_run_unknown(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_cli_run_with_seed(capsys):
    assert main(["run", "fig04", "--seed", "3"]) == 0
    assert "fig04" in capsys.readouterr().out


def test_cli_report_writes_file(tmp_path, capsys):
    out_file = tmp_path / "EXP.md"
    assert main(["report", "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert "Scorecard" in text
    assert "fig09" in text
    assert "❌" not in text  # nothing diverges


def test_generator_counts_checks():
    text = generate_experiments_md(quick=True)
    assert "Scorecard:" in text
    # scorecard reads "N/N" with N == N (all reproduce)
    line = next(ln for ln in text.splitlines() if "Scorecard" in ln)
    nums = line.split("Scorecard:")[1].split()[0]
    ok, total = nums.split("/")
    assert ok == total
    assert int(total) >= 65


@pytest.mark.parametrize("bad", ["0", "-2", "two"])
def test_cli_rejects_bad_jobs_count(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--jobs", bad])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err


def test_cli_jobs_accepts_auto():
    import argparse

    from repro.__main__ import _jobs_type

    assert _jobs_type("auto") == 0  # the executor's per-core sentinel
    assert _jobs_type("3") == 3
    with pytest.raises(argparse.ArgumentTypeError):
        _jobs_type("0")


def test_cli_leaves_the_environment_untouched(capsys):
    # The flags reach the run through its configuration; main() leaves
    # the caller's environment exactly as it found it.
    before = sorted(os.environb.items())
    assert main(["run", "ext-service", "-j", "1", "--faults",
                 "link-down@link:1,at=5,duration=2"]) == 0
    assert sorted(os.environb.items()) == before
    assert ("numa-aware vs numa-blind (55 jobs/s/host offered)"
            in capsys.readouterr().out)


def test_cli_fails_a_fault_plan_that_matches_nothing(capsys):
    # A typo in a selector must not pass as a fault-free run.
    assert main(["run", "fig09", "--faults",
                 "link-down@link:rial0,at=1"]) == 2
    err = capsys.readouterr().err
    assert "faults: injected=0 unresolved=" in err
    assert "bad --faults spec" in err and "link:rial0" in err
    # A plan that fires reports its counts and keeps the run's status
    # (fig09's checks diverge once a link goes down).
    assert main(["run", "fig09", "--faults", "link-down@link:1,at=1"]) == 1
    assert "faults: injected=2 unresolved=0" in capsys.readouterr().err


def test_cli_fails_a_fault_plan_no_simulation_runs(capsys):
    # table1 builds its testbed in a context, arming the plan, but runs
    # no simulation: no fault comes due, so the plan did nothing.
    assert main(["run", "table1", "--faults", "link-down@link:1,at=1"]) == 2
    err = capsys.readouterr().err
    assert "faults: injected=0 unresolved=0 armed=1" in err
    assert "bad --faults spec: no fault came due in table1" in err


def test_footer_stats_suppress_idle_subsystems():
    """Disabled subsystems report None, so their footer lines vanish."""
    stats: dict = {}
    generate_experiments_md(quick=True, only={"table1"}, stats=stats)
    assert stats["faults"] is None     # no plan, nothing injected
    assert stats["service"] is None    # no broker ran
    assert stats["fluid"] is not None  # always reported


def test_footer_stats_report_active_subsystems():
    stats: dict = {}
    generate_experiments_md(quick=True, only={"service", "recovery"},
                            stats=stats)
    assert stats["service"] is not None
    assert stats["service"]["submitted"] > 0
    assert stats["faults"] is not None
    assert stats["faults"]["faults_injected"] > 0
