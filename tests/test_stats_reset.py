"""Regression: process-wide counters must not leak across tests.

The autouse ``fresh_metrics`` fixture (conftest.py) zeroes the
:mod:`repro.metrics` registry before each test.  The first two tests
below would each poison the other without it — pytest runs them in file
order, and both assert they start from a clean slate before dirtying it.
"""

from __future__ import annotations

from repro import metrics
from repro.exec import gang
from repro.faults.injector import FaultStats
from repro.service.broker import ServiceStats
from repro.sim import fluid, sampling, shard

#: One counter per layer that has no instance counters of its own (the
#: imports above register the layers).
_LAYER_COUNTERS = {fluid: "rebalances", sampling: "samples_backfilled",
                   shard: "runs", gang: "groups"}


def _dirty_layers() -> None:
    s = ServiceStats()
    s.count("submitted")
    s.count("completed", 1, "bytes_completed", 1024.0)
    s.count("crashes")
    s.count("lost", 1, "lost_bytes", 512.0)
    f = FaultStats()
    f.count("faults_injected")
    f.count("domain_faults")
    f.count("retransmitted_bytes", 4096.0)
    for module, name in _LAYER_COUNTERS.items():
        module._TOTALS[name] += 1


def _all_zero() -> bool:
    return all(v == 0 for counts in metrics.snapshot().values()
               for v in counts.values())


def test_totals_start_clean_then_accumulate():
    assert _all_zero()
    _dirty_layers()
    totals = metrics.snapshot()
    assert totals["service"]["submitted"] == 1
    assert totals["service"]["bytes_completed"] == 1024.0
    assert totals["service"]["lost_bytes"] == 512.0
    assert totals["faults"]["faults_injected"] == 1
    assert totals["faults"]["domain_faults"] == 1
    assert totals["fluid"]["rebalances"] == 1


def test_totals_do_not_leak_from_previous_test():
    # If the fixture failed to reset, the previous test's counts would
    # still be visible here, in every layer.
    assert _all_zero()
    _dirty_layers()
    # Totals reflect exactly this test's activity, nothing inherited.
    totals = metrics.snapshot()
    assert totals["service"]["submitted"] == 1
    assert totals["faults"]["retransmitted_bytes"] == 4096.0
    assert totals["shard"]["runs"] == 1


def test_instance_counters_are_independent_of_reset():
    s = ServiceStats()
    s.count("submitted")
    metrics.reset()
    # The process total is gone; the instance counter survives.
    assert ServiceStats.process_totals()["submitted"] == 0
    assert s.submitted == 1
    # ... and the instance keeps counting into the same (live) layer.
    s.count("submitted")
    assert ServiceStats.process_totals()["submitted"] == 1


def test_reset_preserves_counter_types():
    _dirty_layers()
    metrics.reset()
    totals = metrics.snapshot()
    assert isinstance(totals["service"]["bytes_completed"], float)
    assert isinstance(totals["service"]["submitted"], int)
    assert isinstance(totals["faults"]["recovery_seconds"], float)
    assert isinstance(totals["faults"]["reconnects"], int)
    assert isinstance(ServiceStats().bytes_completed, float)


def test_delta_and_merge_round_trip():
    before = metrics.snapshot()
    _dirty_layers()
    grown = metrics.delta(before)
    assert grown["service"]["completed"] == 1
    assert grown["faults"]["giveups"] == 0
    metrics.reset()
    metrics.merge(grown)
    assert metrics.snapshot() == grown
