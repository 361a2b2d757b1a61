"""Failure domains: wildcard/range selectors, hierarchical targets
(``host:``/``tor:``/``power:``), staggered correlated expansion, and
the shard-friendly silent-miss semantics."""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import parse_range
from repro.hw import Machine, Nic, NicKind
from repro.net.link import connect
from repro.sim.context import Context


def mesh(seed=91, faults="", n_links=4):
    """One context with *n_links* registered links and an armed plan."""
    ctx = Context.create(seed=seed)
    inj = FaultInjector(ctx, FaultPlan.parse(faults))
    links = []
    for i in range(n_links):
        a = Machine(ctx, f"a{i}", pcie_sockets=(0,))
        b = Machine(ctx, f"b{i}", pcie_sockets=(0,))
        na = Nic(a, a.pcie_slots[0], NicKind.ROCE_QDR)
        nb = Nic(b, b.pcie_slots[0], NicKind.ROCE_QDR)
        links.append(connect(na, nb, name=f"rail{i}"))
    return ctx, inj, links


# --- selector parsing & fail-fast validation --------------------------------------


def test_parse_range():
    assert parse_range("0-3") == (0, 3)
    assert parse_range("7-7") == (7, 7)
    assert parse_range("3") is None
    assert parse_range("*") is None
    assert parse_range("a-b") is None
    assert parse_range("-3") is None


def test_range_selector_validation():
    FaultSpec.parse("link-down@link:0-3,at=1")  # ok
    with pytest.raises(ValueError, match="lo <= hi"):
        FaultSpec.parse("link-down@link:3-0,at=1")
    with pytest.raises(ValueError, match="do not apply to failure domains"):
        FaultSpec.parse("link-down@tor:0-3,at=1")


def test_domain_target_validation():
    for target in ("host:web1", "tor:3", "power:0", "tor:*"):
        spec = FaultSpec.parse(f"link-down@{target},at=1,duration=1")
        assert spec.is_domain
    spec = FaultSpec.parse("link-down@link:2,at=1")
    assert not spec.is_domain
    with pytest.raises(ValueError, match="category"):
        FaultSpec.parse("link-down@rack:0,at=1")
    with pytest.raises(ValueError, match="stagger"):
        FaultSpec.parse("link-down@tor:0,at=1,stagger=-0.5")


def test_canonical_omits_default_stagger():
    """A plan that never staggers carries no stagger key in its
    canonical form (its cache identity)."""
    plain = FaultPlan.parse("link-down@link:1,at=5,duration=2")
    assert "stagger" not in plain.canonical()
    staggered = FaultPlan.parse("link-down@tor:1,at=5,duration=2,stagger=0.1")
    assert '"stagger":0.1' in staggered.canonical()
    # Spelling invariance still holds.
    assert (FaultPlan.parse("link-down@tor:1,stagger=0.1,at=5,duration=2")
            .canonical() == staggered.canonical())


# --- range and wildcard resolution ------------------------------------------------


def test_range_selector_fails_exact_slice():
    ctx, inj, links = mesh(faults="link-down@link:1-2,at=1,duration=5")
    ctx.sim.run(until=2.0)
    assert [lk.failed for lk in links] == [False, True, True, False]


def test_wildcard_selector_fails_all():
    ctx, inj, links = mesh(faults="link-down@link:*,at=1,duration=5")
    ctx.sim.run(until=2.0)
    assert all(lk.failed for lk in links)


# --- hierarchical domain expansion ------------------------------------------------


def test_tor_domain_fails_registered_pod():
    ctx, inj, links = mesh(faults="link-down@tor:0,at=1,duration=1")
    inj.register_domain("tor", "0", links[:2])
    inj.register_domain("tor", "1", links[2:])
    ctx.sim.run(until=1.5)
    assert [lk.failed for lk in links] == [True, True, False, False]
    ctx.sim.run(until=3.0)
    assert not any(lk.failed for lk in links)  # outage over, pod restored
    assert inj.stats.domain_faults == 1
    assert inj.stats.faults_injected == 2  # one per expanded link


def test_domain_wildcard_spans_all_groups():
    ctx, inj, links = mesh(faults="link-down@power:*,at=1,duration=5")
    inj.register_domain("power", "0", links[:2])
    inj.register_domain("power", "1", links[2:])
    # Overlap: the same link in two domains is applied once.
    inj.register_domain("power", "1", links[:1])
    ctx.sim.run(until=2.0)
    assert all(lk.failed for lk in links)
    assert inj.stats.faults_injected == len(links)


def test_domain_miss_is_silent_not_unresolved():
    """Under sharding a cell only registers its own pods: a plan clause
    naming another cell's domain is expected, not a plan error."""
    ctx, inj, links = mesh(faults="link-down@tor:7,at=1,duration=1")
    inj.register_domain("tor", "0", links)
    ctx.sim.run(until=2.0)
    assert inj.stats.unresolved == 0
    assert inj.stats.domain_faults == 0
    assert not any(lk.failed for lk in links)
    # A missing *component* selector is still counted as unresolved.
    ctx2, inj2, _ = mesh(faults="link-down@link:99,at=1,duration=1")
    ctx2.sim.run(until=2.0)
    assert inj2.stats.unresolved == 1


def test_stagger_spreads_cascade():
    ctx, inj, links = mesh(
        faults="link-down@tor:0,at=1,duration=10,stagger=0.2")
    inj.register_domain("tor", "0", links)
    ctx.sim.run(until=1.0)
    assert not any(lk.failed for lk in links)  # offsets are strictly later
    ctx.sim.run(until=5.0)
    assert all(lk.failed for lk in links)


def test_stagger_deterministic_per_seed():
    def fire_times(seed):
        ctx, inj, links = mesh(
            seed=seed, faults="link-down@power:0,at=1,duration=10,stagger=0.3")
        inj.register_domain("power", "0", links)
        times = {}
        for lk in links:
            def capture(link=lk):
                orig = link.fail

                def wrapped():
                    times[link.name] = ctx.sim.now
                    orig()
                return wrapped
            lk.fail = capture()
        ctx.sim.run(until=8.0)
        return times

    first, second = fire_times(17), fire_times(17)
    assert first == second and len(first) == 4
    assert len(set(first.values())) > 1  # genuinely spread, not one instant
    assert fire_times(18) != first  # seeded from the context RNG


def test_crash_reaches_registered_transfer():
    class Listener:
        crashed_with = None

        def on_crash(self, restart_delay):
            self.crashed_with = restart_delay

    ctx, inj, _ = mesh(faults="crash@transfer:*,at=1,duration=0.5")
    listener = Listener()
    inj.add_transfer("svc", listener)
    ctx.sim.run(until=2.0)
    assert listener.crashed_with == 0.5
