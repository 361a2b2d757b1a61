"""The fault injector: turns a :class:`FaultPlan` into simulator events.

One :class:`FaultInjector` attaches to a :class:`~repro.sim.context.Context`
(``ctx.faults``).  Fault-capable components register themselves as they
are constructed — links, SSDs, iSER targets, transfers — and the
injector drives the plan's occurrences through ordinary simulation
events, so fault timing is part of the deterministic event order and
runs stay bit-reproducible per seed (randomized jitter draws from the
context's ``"faults"`` RNG stream).

An injector with an **empty** plan schedules nothing and applies
nothing: components see ``injector.active == False`` and take their
fault-free fast paths, so an empty plan is behaviourally (and
byte-for-byte) identical to having no injector at all — the property
the differential tests in ``tests/test_fault_injection.py`` pin down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import metrics
from repro.faults.plan import FaultPlan, FaultSpec, parse_range

__all__ = ["FaultInjector", "FaultStats", "faults_active"]


#: Process-wide fault counters (the ``faults`` registry layer).
_TOTALS = metrics.counters(
    "faults", faults_injected=0, unresolved=0, retransmitted_bytes=0.0,
    streams_failed=0, reconnects=0, giveups=0, recovery_seconds=0.0,
    domain_faults=0)


class FaultStats(metrics.Counters):
    """Counters for injected faults and the recoveries they triggered.

    Each also counts into the ``faults`` registry layer.
    """

    _totals = _TOTALS


def faults_active(ctx) -> "Optional[FaultInjector]":
    """The context's injector, iff it is attached with a non-empty plan."""
    inj = getattr(ctx, "faults", None)
    return inj if inj is not None and inj.active else None


class FaultInjector:
    """Applies a :class:`FaultPlan` to the components of one context."""

    def __init__(self, ctx, plan: FaultPlan):
        if getattr(ctx, "faults", None) is not None:
            raise RuntimeError("context already has a fault injector attached")
        self.ctx = ctx
        self.plan = plan
        self.stats = FaultStats()
        # Registration order defines index selectors (``link:1``).
        self.links: List = []
        self.ssds: List = []
        self.targets: List = []
        self.transfers: List[Tuple[str, object]] = []
        #: (category, name) -> correlated link set, e.g. ("tor", "3").
        self.domains: Dict[Tuple[str, str], List] = {}
        self._cm_penalty: Dict[int, Tuple[float, float]] = {}  # id(link) -> (until, s)
        self._rng = None
        ctx.faults = self
        if not plan.empty:
            for spec in plan.specs:
                ctx.sim.process(
                    self._drive(spec), name=f"faults/{spec.kind}@{spec.target}"
                )

    @property
    def active(self) -> bool:
        """True when the plan schedules at least one fault."""
        return not self.plan.empty

    # -- component registration (constructors call these) --------------------------
    def add_link(self, link) -> None:
        """Register a link in context creation order."""
        self.links.append(link)

    def add_ssd(self, dev) -> None:
        """Register an SSD device."""
        self.ssds.append(dev)

    def add_target(self, target) -> None:
        """Register an iSER target."""
        self.targets.append(target)

    def add_transfer(self, name: str, listener) -> None:
        """Register a recovery-capable transfer as a fault listener.

        *listener* may implement any of ``on_link_down(link, permanent)``,
        ``on_link_up(link)``, ``on_loss(link, fraction)``,
        ``on_qp_error(link)`` and ``on_crash(restart_delay)``; missing
        hooks are skipped.
        """
        self.transfers.append((name, listener))

    def register_domain(self, category: str, name: str, links) -> None:
        """Register a failure domain: *links* fail together under *name*.

        Domain categories are hierarchical topology groups — ``host``
        (one machine's rails), ``tor`` (a pod behind one ToR switch),
        ``power`` (the pods sharing a power domain).  Fleets register
        their hosts at construction; the fabric registers pod and power
        domains per cell (:func:`repro.service.fabric.fleet_cell`), so
        pod/ToR cuts land exactly on shard boundaries.  Registering the
        same domain twice extends it (the unsharded reference path
        builds every pod in one context).
        """
        self.domains.setdefault((category, name), []).extend(links)

    # -- CM handshake penalties ----------------------------------------------------
    def handshake_delay(self, link) -> float:
        """Extra seconds a CM handshake over *link* pays right now."""
        entry = self._cm_penalty.get(id(link))
        if entry is not None and self.ctx.sim.now < entry[0]:
            return entry[1]
        return 0.0

    # -- schedule driving ----------------------------------------------------------
    def _jitter(self, spec: FaultSpec) -> float:
        if spec.jitter <= 0.0:
            return 0.0
        if self._rng is None:
            self._rng = self.ctx.rng.stream("faults")
        return float(self._rng.exponential(spec.jitter))

    def _drive(self, spec: FaultSpec):
        sim = self.ctx.sim
        when = spec.at
        for _ in range(spec.count):
            fire_at = when + self._jitter(spec)
            if fire_at > sim.now:
                yield sim.timeout(fire_at - sim.now)
            self._apply(spec)
            when += spec.period

    # -- fault application ---------------------------------------------------------
    def _resolve(self, spec: FaultSpec) -> list:
        category = spec.category
        sel = spec.selector
        if category in ("host", "tor", "power"):
            return self._resolve_domain(category, sel)
        if category in ("link", "nic"):
            pool = self.links
        elif category == "ssd":
            pool = self.ssds
        elif category == "target":
            pool = self.targets
        else:  # transfer
            if sel == "*":
                return [lst for _, lst in self.transfers]
            return [lst for nm, lst in self.transfers if nm == sel]
        if sel == "*":
            return list(pool)
        if sel.isdigit():
            idx = int(sel)
            return [pool[idx]] if idx < len(pool) else []
        rng = parse_range(sel)
        if rng is not None:
            lo, hi = rng
            return pool[lo:hi + 1]
        return [c for c in pool if getattr(c, "name", None) == sel]

    def _resolve_domain(self, category: str, sel: str) -> list:
        """Expand a failure domain to its correlated link set.

        Registration order is preserved and duplicates dropped (a link
        may belong to several overlapping domains of one wildcard).
        """
        if sel == "*":
            groups = [links for (cat, _nm), links in self.domains.items()
                      if cat == category]
        else:
            hit = self.domains.get((category, sel))
            groups = [hit] if hit is not None else []
        out: list = []
        seen: set = set()
        for links in groups:
            for link in links:
                if id(link) not in seen:
                    seen.add(id(link))
                    out.append(link)
        return out

    def _notify(self, hook: str, *args) -> None:
        for _, listener in self.transfers:
            fn = getattr(listener, hook, None)
            if fn is not None:
                fn(*args)

    def _apply(self, spec: FaultSpec) -> None:
        targets = self._resolve(spec)
        if not targets:
            if spec.is_domain:
                # A domain missing from *this* context is expected under
                # sharding (each cell registers only its own pods), so it
                # is traced but not counted as a plan error.
                self.ctx.trace.emit("fault", "domain not local",
                                    kind=spec.kind, target=spec.target)
            else:
                self.stats.count("unresolved")
                self.ctx.trace.emit("fault", "unresolved target",
                                    kind=spec.kind, target=spec.target)
            return
        if spec.is_domain:
            self.stats.count("domain_faults")
        if spec.stagger > 0.0:
            # Correlated-but-cascading failure: every component of the
            # expansion fires after its own seeded exponential offset,
            # drawn in registration order so the cascade is identical at
            # any worker or shard count (the draws happen in this cell's
            # own "faults" stream).
            if self._rng is None:
                self._rng = self.ctx.rng.stream("faults")
            for component in targets:
                delay = float(self._rng.exponential(spec.stagger))
                self.ctx.sim.timeout(delay).add_callback(
                    lambda _ev, c=component: self._apply_one(spec, c))
            return
        for component in targets:
            self._apply_one(spec, component)

    def _apply_one(self, spec: FaultSpec, component) -> None:
        self.stats.count("faults_injected")
        self.ctx.trace.emit(
            "fault", spec.kind,
            target=getattr(component, "name", spec.target),
            duration=spec.duration, magnitude=spec.magnitude,
        )
        getattr(self, "_apply_" + spec.kind.replace("-", "_"))(spec, component)

    def _apply_link_down(self, spec: FaultSpec, link) -> None:
        permanent = spec.duration <= 0.0
        link.fail()
        self._notify("on_link_down", link, permanent)
        if not permanent:
            self.ctx.sim.process(self._restore_link(link, spec.duration),
                                 name=f"faults/restore-{link.name}")

    def _apply_nic_down(self, spec: FaultSpec, link) -> None:
        link.fail()
        self._notify("on_link_down", link, True)

    def _restore_link(self, link, duration: float):
        yield self.ctx.sim.timeout(duration)
        if link.failed:
            link.restore()
            self._notify("on_link_up", link)

    def _apply_degrade(self, spec: FaultSpec, link) -> None:
        link.degrade(spec.magnitude)
        if spec.duration > 0.0:
            self.ctx.sim.process(self._undegrade_link(link, spec.duration),
                                 name=f"faults/undegrade-{link.name}")

    def _undegrade_link(self, link, duration: float):
        yield self.ctx.sim.timeout(duration)
        link.degrade(1.0)

    def _apply_loss(self, spec: FaultSpec, link) -> None:
        self._notify("on_loss", link, spec.magnitude)

    def _apply_qp_error(self, spec: FaultSpec, link) -> None:
        self._notify("on_qp_error", link)

    def _apply_cm_delay(self, spec: FaultSpec, link) -> None:
        until = (self.ctx.sim.now + spec.duration
                 if spec.duration > 0.0 else float("inf"))
        self._cm_penalty[id(link)] = (until, spec.magnitude)

    def _apply_target_stall(self, spec: FaultSpec, target) -> None:
        # An unresponsive tgtd looks like dead fabric from the initiator:
        # every link terminating on the target's machine goes down.
        machine = target.machine
        stalled = [ln for ln in self.links
                   if ln.a.machine is machine or ln.b.machine is machine]
        for link in stalled:
            link.fail()
            self._notify("on_link_down", link, spec.duration <= 0.0)
            if spec.duration > 0.0:
                self.ctx.sim.process(self._restore_link(link, spec.duration),
                                     name=f"faults/restore-{link.name}")

    def _apply_ssd_degrade(self, spec: FaultSpec, dev) -> None:
        base = dev.throttled_rate if dev.throttled else dev.burst_rate
        dev.bandwidth.set_capacity(base * spec.magnitude)
        if spec.duration > 0.0:
            self.ctx.sim.process(self._restore_ssd(dev, spec.duration),
                                 name=f"faults/restore-{dev.name}")

    def _restore_ssd(self, dev, duration: float):
        yield self.ctx.sim.timeout(duration)
        # Re-read the thermal state at restore time: a device that crossed
        # its thermal budget during the spike comes back throttled.
        dev.bandwidth.set_capacity(
            dev.throttled_rate if dev.throttled else dev.burst_rate
        )

    def _apply_crash(self, spec: FaultSpec, listener) -> None:
        fn = getattr(listener, "on_crash", None)
        if fn is not None:
            fn(spec.duration)
