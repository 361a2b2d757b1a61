"""Unit + property tests for the fluid max-min fair scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidFlow, FluidResource, FluidScheduler, Simulator
from repro.sim.engine import SimulationError


def make() -> tuple[Simulator, FluidScheduler]:
    sim = Simulator()
    return sim, FluidScheduler(sim)


# --- basic behaviour -----------------------------------------------------------


def test_single_flow_full_capacity():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    flow = FluidFlow([(link, 1.0)], size=1000.0, name="f")
    done = sched.start(flow)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)
    assert flow.transferred == pytest.approx(1000.0)


def test_two_flows_share_equally():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f1 = FluidFlow([(link, 1.0)], size=1000.0, name="f1")
    f2 = FluidFlow([(link, 1.0)], size=1000.0, name="f2")
    sched.start(f1)
    d2 = sched.start(f2)
    sim.run(until=d2)
    # both at 50 B/s -> 20 s
    assert sim.now == pytest.approx(20.0)


def test_short_flow_releases_capacity():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    long = FluidFlow([(link, 1.0)], size=1500.0, name="long")
    short = FluidFlow([(link, 1.0)], size=500.0, name="short")
    d_long = sched.start(long)
    sched.start(short)
    sim.run(until=d_long)
    # share 50/50 until short finishes at t=10 (500B at 50B/s);
    # long then has 1000 left at 100B/s -> finishes at t=20.
    assert sim.now == pytest.approx(20.0)


def test_cap_limits_rate():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f = FluidFlow([(link, 1.0)], size=100.0, cap=10.0, name="capped")
    done = sched.start(f)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_capped_flow_leaves_room_for_others():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    capped = FluidFlow([(link, 1.0)], size=1e9, cap=10.0, name="capped")
    free = FluidFlow([(link, 1.0)], size=900.0, name="free")
    sched.start(capped)
    d = sched.start(free)
    sim.run(until=d)
    # free gets 90 B/s -> 10 s
    assert sim.now == pytest.approx(10.0)


def test_weight_two_charges_double():
    sim, sched = make()
    mem = FluidResource(sched, 100.0, "mem")
    copy = FluidFlow([(mem, 2.0)], size=500.0, name="copy")
    done = sched.start(copy)
    sim.run(until=done)
    # payload rate = 100/2 = 50 B/s -> 10 s
    assert sim.now == pytest.approx(10.0)


def test_bottleneck_is_min_along_path():
    sim, sched = make()
    fast = FluidResource(sched, 1000.0, "fast")
    slow = FluidResource(sched, 10.0, "slow")
    f = FluidFlow([(fast, 1.0), (slow, 1.0)], size=100.0, name="path")
    done = sched.start(f)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_duplicate_resource_in_path_accumulates_weight():
    sim, sched = make()
    mem = FluidResource(sched, 100.0, "mem")
    f = FluidFlow([(mem, 1.0), (mem, 1.0)], size=500.0, name="rw")
    done = sched.start(f)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_open_ended_flow_metered_and_stopped():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f = FluidFlow([(link, 1.0)], size=None, name="open")
    sched.start(f)
    sim.run(until=5.0)
    sched.settle()
    assert f.transferred == pytest.approx(500.0)
    moved = sched.stop(f)
    assert moved == pytest.approx(500.0)
    assert f.done.triggered


def test_open_flow_requires_bound():
    sim, sched = make()
    with pytest.raises(ValueError, match="unbounded"):
        FluidFlow([], size=None, name="nothing")


def test_open_flow_with_cap_only_is_fine():
    sim, sched = make()
    f = FluidFlow([], size=100.0, cap=10.0, name="cap-only")
    done = sched.start(f)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)


def test_capacity_change_rebalances():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f = FluidFlow([(link, 1.0)], size=1000.0, name="f")
    done = sched.start(f)

    def throttle():
        yield sim.timeout(5.0)
        link.set_capacity(50.0)  # halve after 500 B transferred

    sim.process(throttle())
    sim.run(until=done)
    # 500 B at 100 B/s (5 s) + 500 B at 50 B/s (10 s)
    assert sim.now == pytest.approx(15.0)


def test_set_cap_midflight():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f = FluidFlow([(link, 1.0)], size=1000.0, name="f")
    done = sched.start(f)

    def tighten():
        yield sim.timeout(5.0)
        sched.set_cap(f, 25.0)

    sim.process(tighten())
    sim.run(until=done)
    # 500 B at 100 + 500 B at 25 -> 5 + 20 = 25 s
    assert sim.now == pytest.approx(25.0)


def test_charges_accumulate_per_byte():
    class Account:
        def __init__(self):
            self.total = 0.0

        def add(self, x):
            self.total += x

    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    acct = Account()
    f = FluidFlow([(link, 1.0)], size=1000.0, charges=[(acct, 0.001)], name="f")
    done = sched.start(f)
    sim.run(until=done)
    assert acct.total == pytest.approx(1.0)  # 1000 B * 0.001 s/B


def test_settle_at_a_completion_stops_at_the_size():
    """For these numbers ``rate * (size / rate)`` rounds above ``size``,
    so the settle at the completion instant would deliver and charge
    more than the flow holds unless it is clipped at what remains.  A
    reader flushing at that instant, ahead of the completion timer,
    sees exactly the size."""

    class Account:
        def __init__(self):
            self.total = 0.0

        def add(self, x):
            self.total += x

    size, rate = 519502.0, 780.0
    assert rate * (size / rate) > size
    sim, sched = make()
    acct = Account()
    f = FluidFlow([(FluidResource(sched, rate, "link"), 1.0)], size=size,
                  charges=[(acct, 0.5)], name="f")
    seen = []

    def read(_ev):
        sched.flush()
        seen.append((sim.now, f.transferred, acct.total))

    sim.timeout(size / rate).add_callback(read)  # queued ahead of the timer
    done = sched.start(f)
    sim.run(until=done)
    assert seen == [(size / rate, size, size * 0.5)]
    assert f.finished_at == size / rate
    assert (f.transferred, acct.total) == (size, size * 0.5)


def test_zero_capacity_resource_stalls_flow():
    sim, sched = make()
    dead = FluidResource(sched, 0.0, "dead")
    f = FluidFlow([(dead, 1.0)], size=100.0, name="stalled")
    sched.start(f)
    sim.run(until=100.0)
    sched.settle()
    assert f.transferred == 0.0
    assert not f.done.triggered


def test_flow_restart_rejected():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f = FluidFlow([(link, 1.0)], size=10.0, name="f")
    sched.start(f)
    with pytest.raises(SimulationError):
        sched.start(f)


def test_stop_inactive_flow_rejected():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f = FluidFlow([(link, 1.0)], size=10.0, name="f")
    with pytest.raises(SimulationError):
        sched.stop(f)


def test_flow_validation():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    with pytest.raises(ValueError):
        FluidFlow([(link, 0.0)], size=10.0)
    with pytest.raises(ValueError):
        FluidFlow([(link, 1.0)], size=-5.0)
    with pytest.raises(ValueError):
        FluidFlow([(link, 1.0)], size=10.0, cap=0.0)


def test_resource_validation():
    sim, sched = make()
    with pytest.raises(ValueError):
        FluidResource(sched, -1.0)


def test_utilization_reporting():
    sim, sched = make()
    link = FluidResource(sched, 100.0, "link")
    f = FluidFlow([(link, 1.0)], size=1e6, cap=40.0, name="f")
    sched.start(f)
    sim.run(until=1.0)
    assert link.load == pytest.approx(40.0)
    assert link.load / link.capacity == pytest.approx(0.4)


def test_three_stage_pipeline_convoy():
    """Two flows overlapping on one of three resources."""
    sim, sched = make()
    a = FluidResource(sched, 100.0, "a")
    b = FluidResource(sched, 100.0, "b")
    shared = FluidResource(sched, 100.0, "shared")
    f1 = FluidFlow([(a, 1.0), (shared, 1.0)], size=1000.0, name="f1")
    f2 = FluidFlow([(b, 1.0), (shared, 1.0)], size=1000.0, name="f2")
    d1 = sched.start(f1)
    sched.start(f2)
    sim.run(until=d1)
    assert sim.now == pytest.approx(20.0)


# --- max-min property tests -----------------------------------------------------


@st.composite
def allocation_problem(draw):
    n_res = draw(st.integers(min_value=1, max_value=4))
    caps = [draw(st.floats(min_value=1.0, max_value=1000.0)) for _ in range(n_res)]
    n_flows = draw(st.integers(min_value=1, max_value=6))
    flows = []
    for _ in range(n_flows):
        n_used = draw(st.integers(min_value=1, max_value=n_res))
        used = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_res - 1),
                min_size=n_used,
                max_size=n_used,
                unique=True,
            )
        )
        weights = [
            draw(st.floats(min_value=0.5, max_value=3.0)) for _ in range(len(used))
        ]
        cap = draw(
            st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0))
        )
        flows.append((list(zip(used, weights)), cap))
    return caps, flows


@given(allocation_problem())
@settings(max_examples=120, deadline=None)
def test_allocation_is_feasible_and_maxmin(problem):
    caps, flow_specs = problem
    sim = Simulator()
    sched = FluidScheduler(sim)
    resources = [FluidResource(sched, c, f"r{i}") for i, c in enumerate(caps)]
    flows = []
    for i, (path_idx, cap) in enumerate(flow_specs):
        path = [(resources[j], w) for j, w in path_idx]
        flows.append(FluidFlow(path, size=1e12, cap=cap, name=f"f{i}"))
    for f in flows:
        sched.start(f)

    # Feasibility: no resource over capacity.
    for r in resources:
        assert r.load <= r.capacity * (1 + 1e-6)

    # Cap respected.
    for f in flows:
        if f.cap is not None:
            assert f.rate <= f.cap * (1 + 1e-6)

    # Pareto/max-min: every flow is blocked by its cap or by a saturated
    # resource on its path (no flow can be unilaterally increased).
    for f in flows:
        at_cap = f.cap is not None and f.rate >= f.cap * (1 - 1e-6)
        on_saturated = any(
            r.load >= r.capacity * (1 - 1e-6) for r in f._weights
        )
        assert at_cap or on_saturated, f"{f} is not blocked by anything"

    # Max-min fairness: if flow A's rate < flow B's rate and they share a
    # resource that is A's bottleneck, then that resource must be saturated
    # and B must not be increasable there either -- implied by the water
    # filling construction; we spot-check pairwise envy on shared resources:
    for fa in flows:
        for fb in flows:
            if fa is fb or fa.rate >= fb.rate - 1e-9:
                continue
            shared = set(fa._weights) & set(fb._weights)
            # if fa is strictly slower and not at its cap, some shared or
            # private resource must be saturated for fa
            if shared and (fa.cap is None or fa.rate < fa.cap * (1 - 1e-6)):
                assert any(
                    r.load >= r.capacity * (1 - 1e-6) for r in fa._weights
                )


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
    st.floats(min_value=1.0, max_value=1e6),
)
@settings(max_examples=60, deadline=None)
def test_single_resource_equal_split(sizes, capacity):
    """N uncapped equal flows on one resource each get capacity/N."""
    sim = Simulator()
    sched = FluidScheduler(sim)
    link = FluidResource(sched, capacity, "link")
    flows = [
        FluidFlow([(link, 1.0)], size=s * 1e6, name=f"f{i}")
        for i, s in enumerate(sizes)
    ]
    for f in flows:
        sched.start(f)
    expected = capacity / len(flows)
    for f in flows:
        assert f.rate == pytest.approx(expected, rel=1e-6)


@given(st.integers(min_value=1, max_value=6), st.floats(min_value=10.0, max_value=1e4))
@settings(max_examples=40, deadline=None)
def test_conservation_of_bytes(n_flows, capacity):
    """Total bytes delivered equals sum of flow sizes, regardless of sharing."""
    sim = Simulator()
    sched = FluidScheduler(sim)
    link = FluidResource(sched, capacity, "link")
    sizes = [(i + 1) * 100.0 for i in range(n_flows)]
    flows = [
        FluidFlow([(link, 1.0)], size=s, name=f"f{i}") for i, s in enumerate(sizes)
    ]
    events = [sched.start(f) for f in flows]
    for ev in events:
        sim.run(until=ev)
    total = sum(f.transferred for f in flows)
    assert total == pytest.approx(sum(sizes), rel=1e-9)
    # serial lower bound on completion: all bytes through one pipe
    assert sim.now >= sum(sizes) / capacity * (1 - 1e-9)
