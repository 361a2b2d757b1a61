"""Shared pytest fixtures.

Every layer counts into the process-wide registry in
:mod:`repro.metrics` (report-footer telemetry).  Left alone, every test
that runs a scheduler, broker, injector, shard exchange or gang kernel
would bleed its counts into the next test's view of the totals, so any
assertion on them would depend on test ordering.  The autouse fixture
below zeroes the registry before each test; instance counters are
unaffected.
"""

from __future__ import annotations

import pytest

from repro import metrics


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Isolate each test from process-wide counter accumulation."""
    metrics.reset()
    yield
