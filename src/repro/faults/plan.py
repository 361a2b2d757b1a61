"""Declarative fault plans: what breaks, where, when, and how often.

A :class:`FaultPlan` is an immutable schedule of typed
:class:`FaultSpec` entries.  Plans are data, not behaviour: the
:class:`~repro.faults.injector.FaultInjector` turns them into simulator
events, and :meth:`FaultPlan.canonical` turns them into the JSON string
hashed into the result-cache identity — two spellings of the same plan
share one cache entry, and different plans never collide.

Plans parse from a compact spec string (the ``--faults`` CLI argument
and the ``REPRO_FAULTS`` environment variable)::

    kind@target[,key=value...][;kind@target,...]

    link-down@link:1,at=5,duration=2      # one 2 s outage on link 1
    link-down@link:0,at=4,period=6,count=3  # a flapping port
    degrade@link:*,at=10,magnitude=0.5    # halve every link
    nic-down@link:2,at=8                  # permanent NIC failure
    loss@link:0,at=5,magnitude=0.3,period=4,count=5,jitter=0.5

Targets are ``category:selector`` pairs; the selector is an index into
the context's registration order, an inclusive index range
(``link:0-3``), a component name, or ``*`` for all registered
components of that category.  ``jitter`` adds an
exponentially-distributed delay (mean ``jitter`` seconds, drawn from the
context's ``"faults"`` RNG stream) to each occurrence, so randomized
plans stay bit-reproducible per seed.

**Failure domains** are hierarchical targets over registered topology
(``host:<name>``, ``tor:<pod>``, ``power:<domain>``): at arm time the
injector expands a domain to the correlated set of links registered
under it — a ToR cut takes out a whole pod of rails at once.  The
``stagger`` field spreads a multi-component expansion over seeded
exponential per-component offsets (mean ``stagger`` seconds from the
same ``"faults"`` stream), modeling the cascade of a real domain
failure instead of one synchronized instant.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "fault_scope",
    "parse_range",
    "scoped_plan",
]

#: Every fault type the injector knows how to apply.
FAULT_KINDS = frozenset({
    "link-down",     # link outage; duration=0 means permanent
    "nic-down",      # permanent NIC/port failure (never restored)
    "degrade",       # clamp link to magnitude x nominal for duration
    "loss",          # loss burst: magnitude = fraction of in-flight window
    "qp-error",      # RDMA QP async error (stale rkey / retry exceeded)
    "cm-delay",      # CM handshakes pay +magnitude seconds for duration
    "target-stall",  # iSER target unresponsive: its links drop for duration
    "ssd-degrade",   # SSD latency spike: magnitude x bandwidth for duration
    "crash",         # process crash; restart after duration seconds
})

_TARGET_CATEGORIES = ("link", "nic", "ssd", "target", "transfer")

#: Hierarchical failure-domain categories: selectors name registered
#: topology groups (see ``FaultInjector.register_domain``) instead of
#: individual components, and expand to correlated link sets at arm time.
_DOMAIN_CATEGORIES = ("host", "tor", "power")

_FIELD_ALIASES = {
    "at": "at", "t": "at",
    "duration": "duration", "dur": "duration",
    "magnitude": "magnitude", "mag": "magnitude",
    "period": "period",
    "count": "count", "n": "count",
    "jitter": "jitter",
    "stagger": "stagger",
}


def parse_range(selector: str) -> "tuple[int, int] | None":
    """``"lo-hi"`` as an inclusive index pair, or None if not a range."""
    lo, sep, hi = selector.partition("-")
    if not sep or not lo.isdigit() or not hi.isdigit():
        return None
    return int(lo), int(hi)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: a kind, a target selector, and its timing."""

    kind: str
    target: str
    at: float = 0.0
    duration: float = 0.0
    magnitude: float = 1.0
    period: float = 0.0
    count: int = 1
    jitter: float = 0.0
    #: Mean per-component offset (seconds) when the target expands to
    #: several components; 0 applies the whole set at one instant.
    stagger: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        category, sep, selector = self.target.partition(":")
        known = _TARGET_CATEGORIES + _DOMAIN_CATEGORIES
        if not sep or category not in known or not selector:
            raise ValueError(
                f"fault target must be 'category:selector' with category in "
                f"{known}, got {self.target!r}"
            )
        rng = parse_range(selector)
        if rng is not None:
            if category in _DOMAIN_CATEGORIES:
                raise ValueError(
                    f"range selectors index registration order and do not "
                    f"apply to failure domains, got {self.target!r}"
                )
            lo, hi = rng
            if lo > hi:
                raise ValueError(
                    f"bad range selector {selector!r} in {self.target!r}: "
                    f"need lo <= hi"
                )
        if self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.stagger < 0:
            raise ValueError(f"stagger must be >= 0, got {self.stagger}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.count > 1 and self.period <= 0:
            raise ValueError("period must be > 0 when count > 1")
        if self.kind in ("degrade", "ssd-degrade", "loss"):
            if not (0.0 < self.magnitude <= 1.0):
                raise ValueError(
                    f"{self.kind} magnitude must be in (0, 1], "
                    f"got {self.magnitude}"
                )
        elif self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")

    @property
    def category(self) -> str:
        """The target category (``link``, ``ssd``, ...)."""
        return self.target.partition(":")[0]

    @property
    def selector(self) -> str:
        """The target selector (index, range, name, or ``*``)."""
        return self.target.partition(":")[2]

    @property
    def is_domain(self) -> bool:
        """True when the target names a failure domain (host/tor/power)."""
        return self.category in _DOMAIN_CATEGORIES

    @classmethod
    def parse(cls, clause: str) -> "FaultSpec":
        """Parse one ``kind@target[,key=value...]`` clause."""
        head, sep, _ = clause.partition("@")
        if not sep:
            raise ValueError(
                f"fault clause must look like 'kind@target[,key=value...]', "
                f"got {clause!r}"
            )
        parts = clause[len(head) + 1:].split(",")
        kwargs: dict = {"kind": head.strip(), "target": parts[0].strip()}
        for part in parts[1:]:
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in _FIELD_ALIASES:
                raise ValueError(
                    f"bad fault field {part!r} in {clause!r}; expected one of "
                    f"{sorted(set(_FIELD_ALIASES))}"
                )
            name = _FIELD_ALIASES[key]
            kwargs[name] = int(value) if name == "count" else float(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered schedule of faults."""

    specs: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultPlan entries must be FaultSpec, got {spec!r}")

    @property
    def empty(self) -> bool:
        """True when the plan schedules nothing."""
        return not self.specs

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``;``-separated spec string (empty string = empty plan)."""
        clauses = [c.strip() for c in text.split(";") if c.strip()]
        return cls(tuple(FaultSpec.parse(c) for c in clauses))

    def canonical(self) -> str:
        """Stable JSON form — the plan's result-cache identity component.

        ``stagger`` only appears when set: a plan that never staggers
        keys identically to its pre-domain-era spelling.
        """
        entries = []
        for s in self.specs:
            entry = {
                "kind": s.kind, "target": s.target, "at": s.at,
                "duration": s.duration, "magnitude": s.magnitude,
                "period": s.period, "count": s.count, "jitter": s.jitter,
            }
            if s.stagger > 0.0:
                entry["stagger"] = s.stagger
            entries.append(entry)
        return json.dumps(entries, sort_keys=True, separators=(",", ":"))


#: The run-wide plan, the one implicit channel of a run's configuration.
#: Set only by the CLI (for a run) and ``SimTask.execute`` (for a task).
_SCOPED_PLAN: "ContextVar[FaultPlan | None]" = ContextVar(
    "repro_fault_plan", default=None)


def scoped_plan() -> "FaultPlan | None":
    """The plan of the enclosing :func:`fault_scope` (None outside one)."""
    return _SCOPED_PLAN.get()


@contextmanager
def fault_scope(plan: "FaultPlan | None") -> Iterator[None]:
    """Make *plan* (None or empty: no faults) the run-wide plan of the
    enclosed block: contexts created there without a plan arm it, and
    tasks planned there carry it."""
    token = _SCOPED_PLAN.set(None if plan is None or plan.empty else plan)
    try:
        yield
    finally:
        _SCOPED_PLAN.reset(token)
