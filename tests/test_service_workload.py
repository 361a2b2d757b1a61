"""Workload generators: seeded determinism, distributions, draw order."""

import math

import pytest

from repro.service import WorkloadConfig, WorkloadGenerator, workload
from repro.service.workload import LOGNORMAL_SIGMA, N_TENANTS
from repro.sim.context import Context
from repro.sim.rng import RngRegistry
from repro.util.units import MIB


def _collect(config, seed, until=20.0, n_nodes=2):
    """Run a generator against a recording sink; returns the submissions."""
    ctx = Context.create(seed=seed)
    events = []
    gen = WorkloadGenerator(
        ctx, config,
        lambda tenant, size, node: events.append(
            (ctx.now, tenant, size, node)),
        n_nodes=n_nodes)
    gen.start()
    ctx.sim.run(until=until)
    return events


def test_same_seed_same_submissions():
    cfg = WorkloadConfig(rate=40.0)
    a = _collect(cfg, seed=42)
    b = _collect(cfg, seed=42)
    assert a and a == b


def test_different_seeds_differ():
    cfg = WorkloadConfig(rate=40.0)
    assert _collect(cfg, seed=1) != _collect(cfg, seed=2)


def test_poisson_rate_roughly_honored():
    events = _collect(WorkloadConfig(rate=50.0), seed=0, until=40.0)
    # ~2000 expected; 5 sigma is ~220
    assert 1700 < len(events) < 2300


def test_lognormal_sizes_hit_their_mean():
    cfg = WorkloadConfig(rate=200.0, size_mean=64 * MIB)
    sizes = [size for _, _, size, _ in _collect(cfg, seed=3, until=60.0)]
    assert len(sizes) > 5000
    mean = sum(sizes) / len(sizes)
    # heavy-tailed, so the sample mean converges slowly; 25% is generous
    assert mean == pytest.approx(64 * MIB, rel=0.25)
    assert min(sizes) > 0


def test_tenants_and_nodes_within_bounds():
    cfg = WorkloadConfig(rate=100.0)
    events = _collect(cfg, seed=5, until=10.0, n_nodes=2)
    tenants = {t for _, t, _, _ in events}
    nodes = {n for _, _, _, n in events}
    assert tenants <= {f"tenant{i}" for i in range(N_TENANTS)}
    assert len(tenants) > 1  # actually multi-tenant
    assert nodes == {0, 1}


def test_idle_generator_is_byte_invisible():
    """Constructing (but not starting) a generator perturbs nothing."""
    def _run(with_idle):
        ctx = Context.create(seed=9)
        if with_idle:
            WorkloadGenerator(ctx, WorkloadConfig(), lambda *a: None)
        draws = ctx.rng.stream("probe").random(4).tolist()
        ctx.sim.run(until=1.0)
        return draws, ctx.now

    assert _run(False) == _run(True)


def test_stop_halts_submissions():
    ctx = Context.create(seed=1)
    events = []
    gen = WorkloadGenerator(ctx, WorkloadConfig(rate=50.0),
                            lambda *a: events.append(ctx.now))
    gen.start()
    ctx.sim.run(until=5.0)
    gen.stop()
    n = len(events)
    ctx.sim.run(until=20.0)
    assert len(events) == n > 0


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(rate=0.0)


def _expected_draws(config, seed, until, n_tenants, n_nodes=2):
    """The documented draw order, replayed on fresh streams of one seed.

    Each arrival draws a gap from ``service.arrivals``; its job then
    draws its tenant, size and first-touch node, in that order, from
    ``service.tenants``, ``service.sizes`` and ``service.placement``.
    """
    rng = RngRegistry(seed)
    arrivals = rng.stream("service.arrivals")
    tenants = rng.stream("service.tenants")
    sizes = rng.stream("service.sizes")
    touch = rng.stream("service.placement")
    sigma = LOGNORMAL_SIGMA
    mu = math.log(config.size_mean) - 0.5 * sigma * sigma
    out = []
    t = 0.0
    while True:
        t = t + float(arrivals.exponential(1.0 / config.rate))
        if t > until:
            return out
        tenant = f"tenant{int(tenants.integers(n_tenants))}"
        size = float(sizes.lognormal(mu, sigma))
        out.append((t, tenant, size, int(touch.integers(n_nodes))))


@pytest.mark.parametrize("rate,n_tenants", [
    (40.0, N_TENANTS),
    (25.0, 5),
], ids=["poisson", "five-tenants"])
def test_draws_follow_the_documented_order(monkeypatch, rate, n_tenants):
    """Every submission equals the scalar draws taken in documented order."""
    monkeypatch.setattr(workload, "N_TENANTS", n_tenants)
    config = WorkloadConfig(rate=rate)
    ctx = Context.create(seed=11)
    got = []

    def submit(tenant, size, node):
        got.append((ctx.now, tenant, size, node))

    gen = WorkloadGenerator(ctx, config, submit, n_nodes=3)
    gen.start()
    ctx.sim.run(until=6.0)
    expected = _expected_draws(config, seed=11, until=6.0, n_nodes=3,
                               n_tenants=n_tenants)
    assert len(expected) > 50
    assert got == expected
    assert gen.submitted == len(expected)
