"""Discrete-event simulation engine.

A minimal but complete event-driven kernel:

* :class:`Simulator` owns the clock and the event heap.
* :class:`Event` is a one-shot occurrence with callbacks and a value.
* :class:`Process` drives a Python generator; ``yield event`` suspends the
  process until the event fires, and the yielded event's value becomes the
  result of the ``yield`` expression.  A ``return value`` in the generator
  becomes the process's own event value.
* :class:`Timeout` fires after a fixed delay.
* :class:`AnyOf` / :class:`AllOf` compose events.
* :meth:`Process.interrupt` raises :class:`Interrupt` inside the generator.

The design follows SimPy's semantics closely (so anyone familiar with SimPy
can read the protocol code), but is implemented from scratch and trimmed to
what this library needs.
"""

from __future__ import annotations

import sys
import time
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "SimStats",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, negative delay...)."""


class Interrupt(Exception):
    """Raised inside a process generator by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        """The value passed to interrupt()."""
        return self.args[0] if self.args else None


# Event priorities: interrupts preempt normal events scheduled at the same
# simulated instant so that an interrupted process observes the interrupt
# before e.g. a simultaneous timeout.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence.

    Lifecycle: *pending* -> triggered (scheduled on the heap) -> processed
    (callbacks ran).  ``succeed``/``fail`` trigger it; ``value`` holds the
    payload (or the exception for failed events).

    The heap holds ``(time, priority, seq, event)`` entries (see
    :meth:`Simulator._push`): the unique schedule sequence settles every
    tie, so heap comparisons stay inside C tuple compares and never reach
    the event.  The callback list is allocated lazily on the first
    ``add_callback`` — most timeouts carry exactly one waiter and many
    events none at all.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "name")

    _PENDING = object()

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it is or will be processed)."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (raises if not yet triggered)."""
        if self._value is Event._PENDING:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._push(self, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event sees *exc* raised at its ``yield``.
        """
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._push(self, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed.

        If the event has already been processed the callback runs
        immediately (this makes waiting on completed events race-free).
        """
        if self._processed:
            fn(self)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:
        state = (
            "processed" if self._processed else "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        sim._push(self, NORMAL, delay=delay)


class Process(Event):
    """Drives a generator; the process itself is an event (its completion).

    The generator yields :class:`Event` instances.  When the yielded event
    fires, the generator resumes with the event's value (or the exception,
    if the event failed and the generator doesn't catch it, the process
    fails).
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = ""):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", ""))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        # Kick off the generator at the current simulated instant.
        boot = Event(sim)
        boot._ok = True
        boot._value = None
        sim._push(boot, NORMAL)
        boot.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the process has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        intr = Event(self.sim, name="interrupt")
        intr._ok = False
        intr._value = Interrupt(cause)
        # Detach from whatever we were waiting on.
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self.sim._push(intr, URGENT)
        intr.add_callback(self._resume)

    # -- generator pump -----------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        event: Any = None
        try:
            if trigger._ok:
                event = self._gen.send(trigger._value)
            else:
                event = self._gen.throw(trigger._value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            if not self.triggered:
                self.fail(exc)
                return
            raise

        if not isinstance(event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {event!r}; processes must yield Events"
            )
        if event.sim is not self.sim:
            raise SimulationError("yielded event belongs to a different Simulator")
        self._waiting_on = event
        event.add_callback(self._resume)


class _Condition(Event):
    """Base for AnyOf/AllOf: waits on a set of events."""

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._done = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            ev.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev._processed and ev._ok}

    def _check(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of its events fires (failures propagate)."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when all of its events have fired (failures propagate)."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class SimStats:
    """Kernel counters: scheduling volume, heap pressure and wall time.

    ``events_scheduled``/``events_processed`` count heap pushes/pops,
    ``heap_peak`` is the largest simultaneous schedule, ``timeouts_reused``
    counts free-list hits, and ``wall_seconds`` accumulates real time spent
    inside :meth:`Simulator.run`.  ``samples_backfilled`` counts telemetry
    samples materialized analytically by the sampler hub
    (:mod:`repro.sim.sampling`) and ``events_skipped`` the heap events
    those samples would have cost as per-tick sampler processes.
    """

    __slots__ = ("events_scheduled", "events_processed", "heap_peak",
                 "timeouts_reused", "samples_backfilled", "events_skipped",
                 "wall_seconds")

    def __init__(self) -> None:
        self.events_scheduled = 0
        self.events_processed = 0
        self.heap_peak = 0
        self.timeouts_reused = 0
        self.samples_backfilled = 0
        self.events_skipped = 0
        self.wall_seconds = 0.0

    def as_dict(self) -> dict[str, float]:
        """The counters as a plain dict (for reports and JSON)."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_processed": self.events_processed,
            "heap_peak": self.heap_peak,
            "timeouts_reused": self.timeouts_reused,
            "samples_backfilled": self.samples_backfilled,
            "events_skipped": self.events_skipped,
            "wall_seconds": self.wall_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"<SimStats scheduled={self.events_scheduled} "
            f"processed={self.events_processed} heap_peak={self.heap_peak} "
            f"timeouts_reused={self.timeouts_reused} "
            f"backfilled={self.samples_backfilled} "
            f"wall={self.wall_seconds:.3g}s>"
        )


# Timeouts recycled per simulator; bounds free-list memory.
_TIMEOUT_POOL_MAX = 256


class Simulator:
    """The event loop: a clock plus a priority heap of triggered events."""

    #: Process-global count of events processed by *all* simulators ever
    #: created in this interpreter.  The benchmark harness snapshots this
    #: around an experiment to derive an events/sec figure without needing
    #: a handle on the (often many) simulators the experiment builds.
    #: :meth:`run` adds its events when it returns, so the count is exact
    #: between runs.
    events_processed_total = 0

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._timeout_pool: list[Timeout] = []
        self.stats = SimStats()
        #: Lazily-created telemetry hub (see :mod:`repro.sim.sampling`).
        #: The engine only flushes it at run() boundaries; everything else
        #: lives on the sampling side to keep the kernel dependency-free.
        self.sampler_hub = None
        #: Advance hooks: callbacks invoked whenever the clock is about
        #: to move past the current instant (and at run() boundaries).
        #: The fluid scheduler's churn coalescer registers here so that
        #: same-timestamp flow transitions share one deferred rebalance
        #: flushed before any later event observes the new rates.
        self._advance_hooks: list[Callable[[], None]] = []
        #: The event a ``run(until=event)`` call is waiting for: the one
        #: failed event allowed to have no callbacks (run raises it).
        self._awaited: Optional[Event] = None

    def add_advance_hook(self, hook: Callable[[], None]) -> None:
        """Run *hook()* before the clock advances past the current instant.

        Hooks also run when the schedule drains or a ``run()`` horizon is
        reached, so deferred work (e.g. a coalesced rebalance that must
        schedule the next flow completion) cannot be lost at the end of a
        timestamp.  Hooks must be idempotent and may schedule new events
        (including at the current instant); they must never unschedule.
        """
        self._advance_hooks.append(hook)

    def _flush_advance_hooks(self) -> bool:
        """Run all advance hooks; True if they scheduled new events."""
        hooks = self._advance_hooks
        if not hooks:
            return False
        before = self.stats.events_scheduled
        for hook in hooks:
            hook()
        return self.stats.events_scheduled != before

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------
    def _push(self, event: Event, priority: int, delay: float = 0.0,
              at: Optional[float] = None) -> None:
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (self._now + delay if at is None else at, priority,
                        seq, event))
        stats = self.stats
        stats.events_scheduled += 1
        if len(heap) > stats.heap_peak:
            stats.heap_peak = len(heap)

    # -- factories ------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing *delay* seconds from now.

        Reuses a processed, unreferenced ``Timeout`` from the free list
        when one is available (the dominant allocation in long runs).
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            tm = pool.pop()
            tm._ok = True
            tm._value = value
            tm._processed = False
            tm.callbacks = None
            tm.name = ""
            self.stats.timeouts_reused += 1
            self._push(tm, NORMAL, delay=delay)
            return tm
        return Timeout(self, delay, value)

    def timeout_at(self, at: float, value: Any = None) -> Timeout:
        """An event firing at absolute simulated time *at* (>= now).

        Equivalent to ``timeout(at - now)`` except the deadline is used
        verbatim — no ``now + (at - now)`` round trip — so callers that
        computed an absolute completion time keep it to the last bit.
        """
        if at < self._now:
            raise SimulationError(f"timeout_at({at}) is before now={self._now}")
        pool = self._timeout_pool
        if pool:
            tm = pool.pop()
            tm._ok = True
            tm._value = value
            tm._processed = False
            tm.callbacks = None
            tm.name = ""
            self.stats.timeouts_reused += 1
        else:
            tm = Timeout.__new__(Timeout)
            Event.__init__(tm, self)
            tm._ok = True
            tm._value = value
        self._push(tm, NORMAL, at=at)
        return tm

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a process driving *gen*; returns its completion event."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of the given events fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of the given events have fired."""
        return AllOf(self, events)

    # -- running ---------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event."""
        self._step()
        Simulator.events_processed_total += 1

    def _step(self) -> None:
        # One event, without the process-global count: run() adds its
        # events to that class attribute once, when it returns, because
        # rebinding a class attribute per event also invalidates
        # CPython's attribute caches for the class every time.
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty schedule")
        if self._advance_hooks and heap[0][0] > self._now:
            # The current instant is over: flush deferred work before any
            # later event runs (hooks may schedule earlier events, e.g. a
            # coalesced rebalance's completion timer — heappop finds them).
            for hook in self._advance_hooks:
                hook()
        # Unpacked at once: the entry tuple dies here, so the event's
        # reference count below is the timeout-recycling test's own.
        t, _prio, _seq, event = heappop(heap)
        if t < self._now - 1e-12:
            raise SimulationError(f"time went backwards: {t} < {self._now}")
        if t > self._now:
            self._now = t
        self.stats.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if callbacks:
            for cb in callbacks:
                cb(event)
        elif event._ok is False and event is not self._awaited:
            # Nothing observes this failure (e.g. a fire-and-forget
            # process raised): surface it instead of dropping it.
            raise event._value
        # Recycle plain timeouts nobody holds a reference to any more
        # (CPython: the local `event` plus getrefcount's own argument).
        if (
            type(event) is Timeout
            and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
            and sys.getrefcount(event) == 2
        ):
            event._value = None
            self._timeout_pool.append(event)

    def peek(self) -> float:
        """Time of the next event, or +inf if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until=None``  — run until no events remain.
        * ``until=float`` — run until the clock reaches that time.
        * ``until=Event`` — run until the event fires; returns its value
          (raising if the event failed).

        A failed event that nothing waits on (no callbacks, and not the
        ``until`` event) raises its exception out of ``run``/``step``.
        """
        t0 = time.perf_counter()
        processed = self.stats.events_processed
        try:
            if until is None:
                while True:
                    while self._heap:
                        self._step()
                    # A deferred flush may schedule the next completion;
                    # keep going until the hooks add nothing new.
                    if not self._flush_advance_hooks():
                        return None

            if isinstance(until, Event):
                target = until
                outer, self._awaited = self._awaited, target
                try:
                    while not target.processed:
                        if not self._heap:
                            if self._flush_advance_hooks():
                                continue
                            raise SimulationError(
                                f"simulation starved before {target!r} fired"
                            )
                        self._step()
                finally:
                    self._awaited = outer
                if target._ok:
                    return target._value
                raise target._value

            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(f"cannot run until {horizon} < now={self._now}")
            heap = self._heap
            while True:
                while heap and heap[0][0] <= horizon:
                    self._step()
                # Flush deferred work before the clock jumps to the
                # horizon: a coalesced rebalance may schedule completions
                # inside the horizon, in which case the loop resumes.
                if not self._flush_advance_hooks():
                    break
                if not (heap and heap[0][0] <= horizon):
                    break
            self._now = horizon
            return None
        finally:
            # The sampler hub materializes pending telemetry at run
            # boundaries so series are current when control returns to
            # the caller (no-op unless channels are registered).
            hub = self.sampler_hub
            if hub is not None and hub._channels:
                hub.flush()
            Simulator.events_processed_total += (
                self.stats.events_processed - processed)
            self.stats.wall_seconds += time.perf_counter() - t0
