"""Declarative fault plans: what breaks, where, and when.

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
    link-down@link:2,at=8                 # permanent NIC/port failure
    link-down@tor:3,at=1,duration=1,stagger=0.05  # a cascading ToR cut
    crash@transfer:*,at=4,duration=1      # every transfer restarts

Two kinds exist: ``link-down`` takes links dark (``duration=0`` means
for good) and ``crash`` kills a registered transfer, restarting it
after ``duration`` seconds.  The fields are ``at``, ``duration`` and
``stagger``, all finite and ``>= 0``.

Targets are ``category:selector`` pairs.  ``link`` selects by index
into the context's registration order, an inclusive index range
(``link:0-3``), a link name, or ``*`` for every registered link;
``transfer`` selects by name or ``*``.

**Failure domains** are hierarchical targets over registered topology
(``host:<name>``, ``tor:<pod>``, ``power:<domain>``): at arm time the
injector expands a domain to the correlated set of links registered
under it — a ToR cut takes out a whole pod of rails at once.  The
``stagger`` field spreads a multi-component expansion over seeded
exponential per-component offsets (mean ``stagger`` seconds from the
context's ``"faults"`` RNG stream), modeling the cascade of a real
domain failure instead of one synchronized instant; runs stay
bit-reproducible per seed.
"""

from __future__ import annotations

import json
import math
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

#: Every fault kind, with the target categories it may name.
_KIND_TARGETS = {
    # link outage; duration=0 means permanent (a dead NIC or port)
    "link-down": ("link", "host", "tor", "power"),
    # process crash; restart after duration seconds
    "crash": ("transfer",),
}

#: Every fault type the injector knows how to apply.
FAULT_KINDS = frozenset(_KIND_TARGETS)

#: Hierarchical failure-domain categories: selectors name registered
#: topology groups (see ``FaultInjector.register_domain``) instead of
#: individual components, and expand to correlated link sets at arm time.
_DOMAIN_CATEGORIES = ("host", "tor", "power")

_CATEGORIES = ("link", "transfer") + _DOMAIN_CATEGORIES

#: The timing fields a clause may set, all seconds.
_FIELDS = ("at", "duration", "stagger")


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
        if not sep or category not in _CATEGORIES or not selector:
            raise ValueError(
                f"fault target must be 'category:selector' with category in "
                f"{_CATEGORIES}, got {self.target!r}"
            )
        allowed = _KIND_TARGETS[self.kind]
        if category not in allowed:
            raise ValueError(
                f"{self.kind} cannot target {category!r} "
                f"(in {self.target!r}); expected one of {allowed}"
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
        for name in _FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}")

    @property
    def category(self) -> str:
        """The target category (``link``, ``transfer``, ``tor``, ...)."""
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
            if not eq or key not in _FIELDS:
                raise ValueError(
                    f"bad fault field {part!r} in {clause!r}; expected one of "
                    f"{list(_FIELDS)}"
                )
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(
                    f"{key} must be a number, got {value.strip()!r} "
                    f"in {clause!r}") from None
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

        ``stagger`` only appears when set.
        """
        entries = []
        for s in self.specs:
            entry = {"kind": s.kind, "target": s.target, "at": s.at,
                     "duration": s.duration}
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
