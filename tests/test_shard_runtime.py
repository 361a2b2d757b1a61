"""Shard-runtime units: slicing, water-filling, ports, REPRO_JOBS."""

import numpy as np
import pytest

from repro.__main__ import _parser, _run_config
from repro.config import RunConfig
from repro.exec.runner import ExecContext, executor
from repro.sim.shard import (BoundaryLink, ShardStats, cell_seed,
                             run_sharded, slice_cells)
from repro.sim.shard import _waterfill


# -- cell slicing ----------------------------------------------------------

def test_slices_are_balanced_and_contiguous():
    slices = slice_cells(10, 3)
    assert [len(s) for s in slices] == [4, 3, 3]
    assert [c for s in slices for c in s] == list(range(10))


def test_slices_clamp_to_cell_count():
    assert slice_cells(2, 8) == [[0], [1]]
    assert slice_cells(5, 1) == [list(range(5))]
    assert slice_cells(5, 0) == [list(range(5))]


def test_cell_seeds_are_distinct_and_shard_independent():
    seeds = [cell_seed(7, c) for c in range(64)]
    assert len(set(seeds)) == 64
    # The recipe depends only on (seed, cell) — never on shard layout.
    assert cell_seed(7, 3) == seeds[3]


# -- the coordinator's water-fill ------------------------------------------

def test_waterfill_splits_capacity_over_hungry_flows():
    shares = _waterfill(90.0, np.array([np.inf, np.inf, np.inf]))
    assert shares == pytest.approx([30.0, 30.0, 30.0])


def test_waterfill_caps_small_wants_and_spills_to_hungry():
    shares = _waterfill(100.0, np.array([10.0, np.inf, np.inf]))
    assert shares == pytest.approx([10.0, 45.0, 45.0])


def test_waterfill_undersubscribed_grants_every_want():
    wants = np.array([10.0, 20.0, 5.0])
    assert _waterfill(100.0, wants) == pytest.approx(list(wants))


def test_waterfill_conserves_capacity_when_oversubscribed():
    wants = np.array([40.0, 15.0, np.inf, 25.0, np.inf])
    shares = _waterfill(60.0, wants)
    assert float(shares.sum()) == pytest.approx(60.0)
    assert all(s <= w + 1e-9 for s, w in zip(shares, wants))


# -- run_sharded validation + exchange accounting --------------------------

def _demo_kwargs(**over):
    kw = dict(
        target="tests.shard_cells:demo_cell",
        n_cells=2,
        boundaries=[BoundaryLink("wan0", 1e9)],
        horizon=4.0, epoch_dt=1.0,
        params={"n_local": 1, "cross_rate": 100e6},
        seed=3,
    )
    kw.update(over)
    return kw


def test_rejects_fractional_epoch_horizon():
    with pytest.raises(ValueError, match="whole number of epochs"):
        run_sharded(**_demo_kwargs(horizon=3.5))


def test_rejects_duplicate_boundary_names():
    with pytest.raises(ValueError, match="unique"):
        run_sharded(**_demo_kwargs(
            boundaries=[BoundaryLink("wan0", 1e9), BoundaryLink("wan0", 2e9)]))


def test_unsaturated_boundary_early_accepts_in_one_round():
    result = run_sharded(**_demo_kwargs())
    ex = result["exchange"]
    assert ex["early_accept"] and ex["converged"]
    assert ex["rounds"] == 1
    assert ShardStats.process_totals()["early_accepts"] == 1
    # 2 capped cross flows at 100 MB/s over 4 s.
    assert ex["boundaries"]["wan0"]["bytes"] == pytest.approx(8e8, rel=1e-6)
    assert ex["boundaries"]["wan0"]["utilization"] == pytest.approx(
        0.2, rel=1e-6)


def test_fixed_round_mode_runs_exactly_that_many_rounds():
    result = run_sharded(**_demo_kwargs(fixed_rounds=3))
    assert result["exchange"]["rounds"] == 3
    assert result["exchange"]["converged"]


def test_contended_boundary_converges_within_round_budget():
    result = run_sharded(**_demo_kwargs(
        boundaries=[BoundaryLink("wan0", 100e6)],
        params={"n_local": 1, "cross_rate": None}))
    ex = result["exchange"]
    assert ex["converged"] and not ex["early_accept"]
    assert 1 < ex["rounds"] <= 6
    assert ex["boundaries"]["wan0"]["utilization"] <= 1.0 + 1e-6


# -- REPRO_JOBS default worker count ---------------------------------------

def test_default_jobs_unset_is_serial():
    assert RunConfig.from_env({}).jobs == 1
    assert ExecContext().effective_jobs == 1


def test_repro_jobs_sets_the_default():
    assert RunConfig.from_env({"REPRO_JOBS": "5"}).jobs == 5
    assert ExecContext(jobs=5).effective_jobs == 5


def test_repro_jobs_auto_resolves_to_cpu_count():
    assert RunConfig.from_env({"REPRO_JOBS": "auto"}).jobs == 0
    assert ExecContext(jobs=0).effective_jobs >= 1


def test_explicit_jobs_beats_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert _run_config(_parser().parse_args(["run", "fig09"])).jobs == 7
    assert _run_config(
        _parser().parse_args(["run", "fig09", "--jobs", "2"])).jobs == 2
    with executor(jobs=3) as ctx:
        assert ctx.effective_jobs == 3


@pytest.mark.parametrize("bad", ["zero", "0", "-2", "1.5"])
def test_repro_jobs_rejects_garbage(bad):
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        RunConfig.from_env({"REPRO_JOBS": bad})
