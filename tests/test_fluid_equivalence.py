"""Differential suite: the fluid kernel against two oracles.

Each scenario is a randomized (seeded) churn script — flows arriving
and departing over shared resources, rate caps, capacity shocks,
open-ended flows stopped mid-flight, zero-capacity and duplicated path
entries — checked two ways:

1. **Against the textbook allocation.**  After every flush (an engine
   advance hook) every active flow's rate must equal, to 1e-6, the
   from-scratch progressive-filling :func:`fluid_reference.maxmin` of
   the current active set.
2. **Against itself under both dispatch paths.**  The scenario runs
   once with ``_VECTOR_MIN_FLOWS`` lowered to 2 (every multi-flow
   component and active set takes the vectorized path) and once raised
   out of reach (every one takes the scalar loop).  The two executions
   must agree on every observable: per-flow transferred bytes and
   completion times and per-category charge totals (1e-6 relative),
   which flows completed at all, and :class:`FluidStats` counters
   (exactly equal, and monotone over time).

Scenario sizes straddle the production ``_VECTOR_MIN_FLOWS`` so the
default dispatch sees both small and large components too.

A Hypothesis generator then draws static components of 2-15 flows (the
sizes the service and fleet workloads allocate with the scalar loop):
caps, private resources, infinite- and zero-capacity shared resources,
some flows stopped after a first check.  Both dispatch paths must match
the textbook allocation at every check, with identical counters.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.accounting import CpuAccounting
from repro.sim import FluidFlow, FluidResource, FluidScheduler, Simulator
from repro.sim import fluid
from repro.sim.fluid import _VECTOR_MIN_FLOWS, FluidStats
from tests.fluid_reference import maxmin

N_SCENARIOS = 200

#: ``_VECTOR_MIN_FLOWS`` settings: everything vectorized / everything scalar.
VECTOR_ALWAYS = 2
VECTOR_NEVER = 10 ** 9


def _random_scenario(rng: random.Random) -> dict:
    """One churn script: resources, flow specs, capacity shocks."""
    # Half the scenarios stay small (scalar dispatch), half go wide
    # enough that whole-graph allocations clear _VECTOR_MIN_FLOWS.
    if rng.random() < 0.5:
        n_res = rng.randint(1, 4)
        n_flows = rng.randint(1, 10)
    else:
        n_res = rng.randint(4, 12)
        n_flows = rng.randint(_VECTOR_MIN_FLOWS, 3 * _VECTOR_MIN_FLOWS)
    capacities = []
    for _ in range(n_res):
        roll = rng.random()
        if roll < 0.08:
            capacities.append(0.0)  # zero-capacity resource
        elif roll < 0.16:
            capacities.append(math.inf)
        else:
            capacities.append(rng.uniform(20.0, 800.0))
    flows = []
    for _ in range(n_flows):
        start = rng.uniform(0.0, 30.0)
        if rng.random() < 0.75:
            size, stop_after = rng.uniform(10.0, 2000.0), None
        else:
            size, stop_after = None, rng.uniform(0.5, 20.0)
        n_path = rng.randint(1, min(4, n_res))
        path = []
        for r in rng.sample(range(n_res), n_path):
            path.append((r, rng.uniform(0.5, 2.0)))
        if path and rng.random() < 0.2:
            path.append(path[0])  # duplicated path entry (weights merge)
        cap = rng.uniform(2.0, 300.0) if rng.random() < 0.35 else None
        if cap is None and not any(
            math.isfinite(capacities[i]) for i, _ in path
        ):
            cap = rng.uniform(2.0, 300.0)  # keep the flow bounded
        charge = (rng.choice(("usr_proto", "copy", "irq")),
                  rng.uniform(0.0, 1e-3))
        flows.append((start, size, stop_after, path, cap, charge))
    shocks = [
        (rng.uniform(1.0, 25.0), rng.randrange(n_res),
         rng.choice([0.0, rng.uniform(10.0, 900.0)]))
        for _ in range(rng.randint(0, 4))
    ] if n_res else []
    return {"capacities": capacities, "flows": flows, "shocks": shocks}


def _check_against_reference(sched, specs, resources, seed) -> None:
    """Every active flow's rate equals the textbook max-min allocation."""
    active = sched.active_flows
    if not active:
        return
    flows = []
    for f in active:
        path = {}
        for j, w in specs[f][3]:
            path[j] = path.get(j, 0.0) + w
        flows.append((path, f.cap))
    expected = maxmin(flows, {j: r.capacity for j, r in enumerate(resources)})
    for f, want in zip(active, expected):
        assert _close(f._rate, want), (
            f"seed {seed} t={sched.sim.now} {f.name}: "
            f"rate {f._rate!r} != reference {want!r}")


def _execute(scenario: dict, vector_min: int, monkeypatch,
             seed: int = -1) -> dict:
    """Run one scenario at one dispatch threshold; return its observables."""
    monkeypatch.setattr(fluid, "_VECTOR_MIN_FLOWS", vector_min)
    sim = Simulator()
    sched = FluidScheduler(sim)
    resources = [FluidResource(sched, c, f"r{i}")
                 for i, c in enumerate(scenario["capacities"])]
    ledger = CpuAccounting("equiv")
    specs = {}

    def check():
        _check_against_reference(sched, specs, resources, seed)

    def starter(delay, flow, stop_after):
        yield sim.timeout(delay)
        sched.start(flow)
        if check not in sim._advance_hooks:
            # Registered after the scheduler's own flush hook (added by
            # its first transition), so the check sees flushed rates.
            sim.add_advance_hook(check)
        if stop_after is not None:
            yield sim.timeout(stop_after)
            if flow._active:
                sched.stop(flow)

    flows = []
    for i, (start, size, stop_after, path_idx, cap, charge) in enumerate(
            scenario["flows"]):
        path = [(resources[j], w) for j, w in path_idx]
        cat, per_byte = charge
        flow = FluidFlow(path, size=size, cap=cap,
                         charges=[(ledger.account(cat), per_byte)],
                         name=f"f{i}")
        flows.append(flow)
        specs[flow] = scenario["flows"][i]
        sim.process(starter(start, flow, stop_after))

    def shocker(when, idx, new_cap):
        yield sim.timeout(when)
        resources[idx].set_capacity(new_cap)

    for when, idx, new_cap in scenario["shocks"]:
        sim.process(shocker(when, idx, new_cap))

    counters_trace = []

    def sampler():
        while True:
            yield sim.timeout(7.0)
            counters_trace.append(sched.stats.as_dict())

    sim.process(sampler())
    sim.run(until=90.0)
    sched.settle()
    for f in flows:
        if f._active:
            sched.stop(f)
    return {
        "transferred": [f.transferred for f in flows],
        "finished_at": [f.finished_at for f in flows],
        "completed": [f.done is not None and f.done.triggered for f in flows],
        "charges": ledger.seconds_by_category(),
        "stats": sched.stats.as_dict(),
        "stats_trace": counters_trace,
    }


def _close(a, b, rel=1e-6):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_solvers_agree(seed, monkeypatch):
    scenario = _random_scenario(random.Random(900_000 + seed))
    ref = _execute(scenario, VECTOR_NEVER, monkeypatch, seed)
    arr = _execute(scenario, VECTOR_ALWAYS, monkeypatch, seed)

    for i, (a, b) in enumerate(zip(ref["transferred"], arr["transferred"])):
        assert _close(a, b), (
            f"seed {seed} flow {i}: transferred scalar={a!r} vector={b!r}"
        )
    for i, (a, b) in enumerate(zip(ref["finished_at"], arr["finished_at"])):
        assert _close(a, b), (
            f"seed {seed} flow {i}: finished_at scalar={a!r} vector={b!r}"
        )
    assert ref["completed"] == arr["completed"]

    assert set(ref["charges"]) == set(arr["charges"])
    for cat, total in ref["charges"].items():
        assert _close(total, arr["charges"][cat]), (
            f"seed {seed} charge {cat}: scalar={total!r} "
            f"vector={arr['charges'][cat]!r}"
        )

    # Counters: identical across dispatch paths (same rebalance cadence)
    assert ref["stats"] == arr["stats"], f"seed {seed}: stats diverged"
    # ... and monotone over simulated time within each run.
    for trace in (ref["stats_trace"], arr["stats_trace"]):
        for earlier, later in zip(trace, trace[1:]):
            for key, value in earlier.items():
                assert later[key] >= value, f"seed {seed}: {key} decreased"


def test_process_totals_accumulate(monkeypatch):
    """The ``fluid`` registry layer advances in step with instance counters."""
    before = FluidStats.process_totals()
    scenario = _random_scenario(random.Random(123456))
    result = _execute(scenario, _VECTOR_MIN_FLOWS, monkeypatch)
    after = FluidStats.process_totals()
    assert after["rebalances"] - before["rebalances"] >= (
        result["stats"]["rebalances"]
    )
    assert all(after[k] >= before[k] for k in after)


# ---------------------------------------------------------------------------
# Generated small components (the scalar filling loop's own generator)
# ---------------------------------------------------------------------------

#: A shared resource's capacity: finite, infinite (never saturates: its
#: saturation threshold is -inf) or zero (saturated from the start).
_shared_capacity = st.one_of(
    st.floats(1.0, 1000.0), st.just(math.inf), st.just(0.0))


@st.composite
def _components(draw):
    """2-15 flows over 1-4 shared resources, with caps and private resources.

    Returns ``(capacities, flows, stopped)``: ``flows`` are
    ``(path, cap)`` with ``path`` a list of ``(resource index, weight)``
    pairs, and ``stopped`` names the flows stopped after the first check.
    """
    capacities = draw(st.lists(_shared_capacity, min_size=1, max_size=4))
    n_shared = len(capacities)
    flows = []
    for _ in range(draw(st.integers(2, 15))):
        members = draw(st.lists(st.integers(0, n_shared - 1), min_size=1,
                                max_size=n_shared, unique=True))
        path = [(j, draw(st.floats(0.25, 4.0))) for j in members]
        if draw(st.booleans()):
            # A private resource: only this flow crosses it.
            capacities.append(draw(st.floats(0.0, 1000.0)))
            path.append((len(capacities) - 1, draw(st.floats(0.25, 4.0))))
        cap = draw(st.one_of(st.none(), st.floats(1.0, 500.0)))
        if cap is None and not any(
                math.isfinite(capacities[j]) for j, _ in path):
            cap = draw(st.floats(1.0, 500.0))  # keep the flow bounded
        flows.append((path, cap))
    stopped = draw(st.lists(st.integers(0, len(flows) - 1), unique=True,
                            max_size=len(flows) - 1))
    return capacities, flows, stopped


def _component_rates(component, vector_min):
    """Rates after admitting every flow and after stopping ``stopped``,
    plus the scheduler's counters."""
    capacities, specs, stopped = component
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluid, "_VECTOR_MIN_FLOWS", vector_min)
        sched = FluidScheduler(Simulator())
        resources = [FluidResource(sched, c, f"r{i}")
                     for i, c in enumerate(capacities)]
        flows = [FluidFlow([(resources[j], w) for j, w in path], size=None,
                           cap=cap, name=f"f{i}")
                 for i, (path, cap) in enumerate(specs)]
        sched.start_many(flows)
        sched.flush()
        first = [f._rate for f in flows]
        sched.finish_many([flows[i] for i in stopped])
        sched.flush()
        second = [f._rate for f in flows if f._active]
    return (first, second), sched.stats.as_dict()


def _reference_rates(component):
    capacities, specs, stopped = component
    capacity = dict(enumerate(capacities))
    flows = []
    for path, cap in specs:
        weights = {}
        for j, w in path:
            weights[j] = weights.get(j, 0.0) + w
        flows.append((weights, cap))
    survivors = [f for i, f in enumerate(flows) if i not in stopped]
    return maxmin(flows, capacity), maxmin(survivors, capacity)


@given(_components())
@settings(max_examples=300, deadline=None)
def test_generated_components_match_reference(component):
    """Both dispatch paths equal the textbook allocation to 1e-9.

    That is the freeze tolerance (a flow within it of its cap, or on a
    resource within it of full, freezes), so it is also as close as the
    scalar and vector paths can be held to each other: the vector path
    freezes a batch of capped flows at their own caps in one round where
    the scalar loop raises one common level cap by cap.  Their counters
    must agree exactly.
    """
    scalar, scalar_stats = _component_rates(component, VECTOR_NEVER)
    vector, vector_stats = _component_rates(component, VECTOR_ALWAYS)
    assert scalar_stats == vector_stats
    for phase, want in zip((scalar, vector), [_reference_rates(component)] * 2):
        for got, expected in zip(phase, want):
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert _close(a, b, rel=1e-9), (a, b)
