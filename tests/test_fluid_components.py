"""Persistent components of the fluid kernel: fill order, merges, splits.

The scheduler keeps each connected component of the flow/resource
sharing graph between flushes: its flows sorted by admission sequence,
each resource's weight sum added up in that order, and each flow's
effective cap with its private resources folded in.  Admitting a flow
merges components; releasing one marks its component for a lazy split
at the next flush.  These tests pin down what that must preserve:

* a fill is a function of the flow set and its admission order, not of
  the order resources were created or listed on a path, of how the
  component was built up, or of which change dirtied it (bitwise);
* after every flush the kept components are exactly the connected
  components, and every cached input equals a fresh computation
  (bitwise), while rates match :func:`fluid_reference.maxmin`;
* a mass ``finish_many`` (a failover) splits a component into the right
  pieces, and later changes refill only their own piece;
* a cap change on a flow frozen below both its old and its new cap
  skips the refill, and leaves every rate and load bitwise where a
  forced refill puts them; any other cap change refills;
* a rebalance that leaves the next completion deadline unchanged does
  not schedule another completion timer.

The churn and failover tests also run with every capacity, cap and size
scaled up to the magnitude of the modelled links (about 1e9 bytes/s),
where the freeze tolerances are relative to values far above 1.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidFlow, FluidResource, FluidScheduler, Simulator
from tests.fluid_reference import maxmin
from tests.test_fluid_equivalence import _close, _components

#: Byte scales the churn and failover tests run at: as drawn (None),
#: doubled, and at the 1e9 bytes/s magnitude of the modelled links.
SCALES = [None, 2, 10 ** 9]


def _paths(specs, resources, order=None):
    """``FluidFlow`` paths from ``(resource index, weight)`` specs."""
    out = []
    for i, (path, _cap) in enumerate(specs):
        entries = [(resources[j], w) for j, w in path]
        if order is not None:
            entries = [entries[k] for k in order[i]]
        out.append(entries)
    return out


def _force_refill(sched, f):
    """Have the next flush refill *f*'s component, whatever changed."""
    sched._mark(f._comp)
    sched._after_change()


def _refill_each(sched, flows, order):
    """Refill the component of each flow in *order*, one flush each."""
    for k in order:
        _force_refill(sched, flows[k])
        sched.flush()


@st.composite
def _rebuilds(draw):
    """A component, plus a second way to build and dirty it."""
    capacities, specs, _stopped = draw(_components())
    n_res, n_flows = len(capacities), len(specs)
    return {
        "capacities": capacities,
        "specs": specs,
        # resource creation order and each path's entry order
        "res_order": draw(st.permutations(range(n_res))),
        "path_orders": [draw(st.permutations(range(len(path))))
                        for path, _cap in specs],
        # flush after admitting each of these flows (admission order kept)
        "flush_after": draw(st.sets(st.integers(0, n_flows - 1))),
        # the order each flow's component is refilled in
        "refill": draw(st.permutations(range(n_flows))),
    }


def _build(case, shuffled):
    capacities, specs = case["capacities"], case["specs"]
    sched = FluidScheduler(Simulator())
    if shuffled:
        made = {j: FluidResource(sched, capacities[j], f"r{j}")
                for j in case["res_order"]}
        resources = [made[j] for j in range(len(capacities))]
        paths = _paths(specs, resources, case["path_orders"])
    else:
        resources = [FluidResource(sched, c, f"r{j}")
                     for j, c in enumerate(capacities)]
        paths = _paths(specs, resources)
    flows = [FluidFlow(path, size=None, cap=cap, name=f"f{i}")
             for i, (path, (_p, cap)) in enumerate(zip(paths, specs))]
    if shuffled:
        for i, f in enumerate(flows):
            sched.start(f)
            if i in case["flush_after"]:
                sched.flush()
        sched.flush()
        _refill_each(sched, flows, case["refill"])
    else:
        sched.start_many(flows)
        sched.flush()
        _refill_each(sched, flows, range(len(flows)))
    return [f._rate for f in flows], [r.load for r in resources]


@given(_rebuilds())
@settings(max_examples=200, deadline=None)
def test_fill_is_a_function_of_the_flow_set(case):
    """Shuffled resource numbering, path order, build-up and refill
    order give bitwise-equal rates and loads."""
    assert _build(case, shuffled=True) == _build(case, shuffled=False)


@st.composite
def _cap_changes(draw):
    """A component, one of its flows, and a new cap for that flow."""
    capacities, specs, _stopped = draw(_components())
    k = draw(st.integers(0, len(specs) - 1))
    cap = draw(st.floats(1.0, 500.0))
    if (any(math.isfinite(capacities[j]) for j, _w in specs[k][0])
            and draw(st.booleans())):
        cap = None
    return capacities, specs, k, cap


def _threshold(f):
    """*f*'s freeze threshold under its current cap, freshly computed."""
    FluidScheduler._refresh(f)
    return f._bthresh


def _recap(case, force):
    """Rates, loads and refills after changing one flow's cap.

    The flow's component is first refilled on its own: a fill is a
    function of the flows it fills, so that is the fill a refill after
    the cap change is compared with."""
    capacities, specs, k, cap = case
    sched = FluidScheduler(Simulator())
    resources = [FluidResource(sched, c, f"r{j}")
                 for j, c in enumerate(capacities)]
    flows = [FluidFlow([(resources[j], w) for j, w in path], size=None,
                       cap=c, name=f"f{i}")
             for i, (path, c) in enumerate(specs)]
    sched.start_many(flows)
    sched.flush()
    f = flows[k]
    _force_refill(sched, f)
    sched.flush()
    rate, old = f._rate, _threshold(f)
    before = sched.stats.allocations
    sched.set_cap(f, cap)
    if force:
        _force_refill(sched, f)
    sched.flush()
    slack = rate < old and rate < _threshold(f)
    return ([g._rate for g in flows], [r.load for r in resources],
            sched.stats.allocations - before, slack)


@given(_cap_changes())
@settings(max_examples=200, deadline=None)
def test_slack_cap_change_keeps_every_rate(case):
    """Skipping the refill of a slack cap change is bitwise invisible,
    and every other cap change (a cap-frozen flow's, or a new cap below
    the rate) still refills."""
    rates, loads, refills, slack = _recap(case, force=False)
    want_rates, want_loads, _, _ = _recap(case, force=True)
    assert rates == want_rates
    assert loads == want_loads
    assert refills == (0 if slack else 1)


def test_cap_change_refills_only_when_the_cap_can_bind():
    sched = FluidScheduler(Simulator())
    shared = FluidResource(sched, 100.0, "shared")
    capped = FluidFlow([(shared, 1.0)], size=None, cap=10.0, name="capped")
    free = FluidFlow([(shared, 1.0)], size=None, name="free")
    sched.start_many([capped, free])
    sched.flush()
    assert (capped._rate, free._rate) == (10.0, 90.0)
    allocations = sched.stats.allocations
    sched.set_cap(free, 95.0)  # above its saturation rate: slack
    sched.flush()
    assert sched.stats.allocations == allocations
    assert (capped._rate, free._rate) == (10.0, 90.0)
    sched.set_cap(capped, 20.0)  # a cap-frozen flow: refill
    sched.flush()
    assert sched.stats.allocations == allocations + 1
    assert (capped._rate, free._rate) == (20.0, 80.0)
    sched.set_cap(free, 50.0)  # below its rate: refill
    sched.flush()
    assert sched.stats.allocations == allocations + 2
    assert (capped._rate, free._rate) == (20.0, 50.0)


def _true_components(sched):
    """Connected components of the active flows, by union-find."""
    parent = {f: f for f in sched.active_flows}

    def find(f):
        while parent[f] is not f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    by_res = {}
    for f in sched.active_flows:
        for r in f._weights:
            if r in by_res:
                parent[find(f)] = find(by_res[r])
            else:
                by_res[r] = f
    groups = {}
    for f in sched.active_flows:
        groups.setdefault(find(f), set()).add(f)
    return sorted((frozenset(g) for g in groups.values()),
                  key=lambda g: min(f._seq for f in g))


def _check_kept_state(sched, resources):
    """Kept components are exact and every cache equals a fresh one."""
    active = sched.active_flows
    comps = {id(f._comp): f._comp for f in active}
    kept = sorted((frozenset(c.flows) for c in comps.values()),
                  key=lambda g: min(f._seq for f in g))
    assert kept == _true_components(sched)
    for c in comps.values():
        assert [f._seq for f in c.flows] == sorted(f._seq for f in c.flows)
        assert all(f._active and f._comp is c for f in c.flows)
    for r in resources:
        users = list(r._users)
        assert [f._seq for f in users] == sorted(f._seq for f in users)
        if users:
            wsum = 0.0
            for f in users:
                wsum += f._weights[r]
            assert r._wsum == wsum
    for f in active:
        if f._stale:
            continue
        bound, shared = f._bound, sorted(f._shared, key=lambda e: e[0].name)
        FluidScheduler._refresh(f)
        assert f._bound == bound
        assert sorted(f._shared, key=lambda e: e[0].name) == shared


def _churn(seed, n_res, n_flows, scale):
    """Bridge-heavy churn: flows span runs of adjacent resources on a
    line, so admissions merge components and releases split them.
    Every drawn capacity, cap and size is multiplied by *scale*."""
    k = 1.0 if scale is None else float(scale)
    rng = random.Random(seed)
    sim = Simulator()
    sched = FluidScheduler(sim)
    capacities = [k * (rng.choice([0.0, math.inf, rng.uniform(50.0, 500.0)])
                       if rng.random() < 0.15 else rng.uniform(50.0, 500.0))
                  for _ in range(n_res)]
    resources = [FluidResource(sched, c, f"r{j}")
                 for j, c in enumerate(capacities)]
    specs = {}
    checks = [0]

    def check():
        _check_kept_state(sched, resources)
        active = sched.active_flows
        if active:
            want = maxmin([specs[f] for f in active],
                          dict(enumerate(capacities)))
            for f, rate in zip(active, want):
                assert _close(f._rate, rate), (seed, sim.now, f.name)
        checks[0] += 1

    def flow(i):
        lo = rng.randrange(n_res)
        span = rng.randint(1, 3)
        idx = [(lo + k) % n_res for k in range(span)]
        path = {j: rng.uniform(0.5, 2.0) for j in idx}
        if rng.random() < 0.3:  # a private resource of its own
            private = FluidResource(sched, k * rng.uniform(20.0, 400.0),
                                    f"p{i}")
            path[len(capacities)] = rng.uniform(0.5, 2.0)
            capacities.append(private.capacity)
            resources.append(private)
        cap = k * rng.uniform(5.0, 300.0) if rng.random() < 0.4 else None
        if cap is None and not any(math.isfinite(capacities[j]) for j in path):
            cap = k * rng.uniform(5.0, 300.0)
        size = k * rng.uniform(50.0, 3000.0) if rng.random() < 0.7 else None
        f = FluidFlow([(resources[j], w) for j, w in path.items()],
                      size=size, cap=cap, name=f"f{i}")
        specs[f] = (path, cap)
        return f

    def arrivals():
        live = []
        for i in range(n_flows):
            yield sim.timeout(rng.expovariate(2.0))
            if rng.random() < 0.2:
                batch = [flow(f"{i}.{k}") for k in range(rng.randint(2, 5))]
                sched.start_many(batch)
                live += batch
            else:
                f = flow(i)
                sched.start(f)
                live.append(f)
            if check not in sim._advance_hooks:
                sim.add_advance_hook(check)
            live = [f for f in live if f._active]
            roll = rng.random()
            if live and roll < 0.15:  # a failover: drop many at once
                sched.finish_many(rng.sample(live, rng.randint(1, len(live))))
            elif live and roll < 0.35:
                sched.stop(rng.choice(live))
            elif live and roll < 0.45:
                victim = rng.choice(live)
                new_cap = k * rng.uniform(5.0, 300.0)
                if any(math.isfinite(r.capacity) for r in victim._weights):
                    new_cap = rng.choice([None, new_cap])
                sched.set_cap(victim, new_cap)
                specs[victim] = (specs[victim][0], victim.cap)
            elif roll < 0.5:
                j = rng.randrange(n_res)
                new = k * rng.uniform(50.0, 500.0)
                resources[j].set_capacity(new)
                capacities[j] = new

    sim.process(arrivals())
    sim.run(until=200.0)
    return checks[0]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("scale", SCALES)
def test_merge_split_churn_matches_reference(seed, scale):
    n_res = 6 + seed % 5
    checks = _churn(31_000 + seed, n_res, 40 + 5 * seed, scale)
    assert checks > 10


@pytest.mark.parametrize("scale", SCALES[1:])
def test_failover_splits_a_component(scale):
    """Rails bridging eight groups go down in one ``finish_many``: the
    component falls apart into the groups, and a later change refills
    only its own group."""
    sched = FluidScheduler(Simulator())
    hubs = [FluidResource(sched, scale * 100.0 * (g + 1), f"hub{g}")
            for g in range(8)]
    groups = [[FluidFlow([(hub, 1.0 + 0.25 * k)], size=None,
                         cap=scale * (30.0 + 7.0 * k + g), name=f"g{g}.{k}")
               for k in range(4)] for g, hub in enumerate(hubs)]
    rails = [FluidFlow([(hubs[g], 1.5), (hubs[g + 1], 0.5)], size=None,
                       name=f"rail{g}") for g in range(7)]
    sched.start_many([f for group in groups for f in group] + rails)
    sched.flush()
    assert len({id(f._comp) for f in sched.active_flows}) == 1

    before = sched.stats.as_dict()
    sched.finish_many(rails)
    sched.flush()
    after = sched.stats.as_dict()
    assert after["flows_recomputed"] - before["flows_recomputed"] == 32
    pieces = _true_components(sched)
    assert pieces == [frozenset(group) for group in groups]
    assert {frozenset(f._comp.flows) for f in sched.active_flows} == set(pieces)
    capacity = {g: hub.capacity for g, hub in enumerate(hubs)}
    for g, group in enumerate(groups):
        want = maxmin([({g: f._weights[hubs[g]]}, f.cap) for f in group],
                      capacity)
        for f, rate in zip(group, want):
            assert _close(f._rate, rate, rel=1e-9), f.name

    sched.set_cap(groups[3][0], scale * 5.0)
    sched.flush()
    assert (sched.stats.flows_recomputed - after["flows_recomputed"]) == 4
    assert groups[3][0]._rate == scale * 5.0


def test_unchanged_deadline_schedules_no_timer():
    """A rebalance whose next completion is still the pending timer's
    deadline leaves that timer armed instead of pushing another."""
    sim = Simulator()
    sched = FluidScheduler(sim)
    a = FluidFlow([(FluidResource(sched, 1.0, "ra"), 1.0)], size=10.0,
                  name="a")
    b = FluidFlow([(FluidResource(sched, 1.0, "rb"), 1.0)], size=40.0,
                  name="b")
    sched.start_many([a, b])
    sim.run(until=5.0)
    scheduled = sim.stats.events_scheduled
    sched.set_cap(b, 0.5)  # b slows down; a still finishes first, at t=10
    sched.flush()
    assert sim.stats.events_scheduled == scheduled
    sched.set_cap(a, 0.5)  # a's deadline moves: one new timer
    sched.flush()
    assert sim.stats.events_scheduled == scheduled + 1
    sim.run()
    assert a.finished_at == 15.0 and a.transferred == 10.0
    assert b.finished_at == pytest.approx(5.0 + 35.0 / 0.5 + 0.0)
