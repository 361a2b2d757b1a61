"""A queueing resource for the event engine.

:class:`Store` is an unbounded or bounded FIFO of Python objects, for
producer/consumer queues: the RDMA completion queues
(:mod:`repro.rdma.verbs`) and the target daemon's SCSI command queue
(:mod:`repro.storage.daemon`).  ``put`` and ``get`` return an
:class:`~repro.sim.engine.Event` to be yielded from a process.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Store"]


class Store:
    """FIFO of arbitrary items with optional capacity bound."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: list[Any] = []
        self._getters: list[tuple[Event, Optional[Callable[[Any], bool]]]] = []
        self._putters: list[tuple[Event, Any]] = []

    @property
    def items(self) -> list[Any]:
        """The queued items (read-only view by convention)."""
        return self._items

    def put(self, item: Any) -> Event:
        """Append *item*; blocks (as an event) while the store is full."""
        ev = Event(self.sim, name="store-put")
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Pop the oldest item (matching *predicate* if given)."""
        ev = Event(self.sim, name="store-get")
        self._getters.append((ev, predicate))
        self._dispatch()
        return ev

    def try_get(self) -> Any:
        """Non-blocking pop; returns the item or None if empty."""
        if not self._items:
            return None
        item = self._items.pop(0)
        self._dispatch()
        return item

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # admit putters while there is room
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                ev, item = self._putters.pop(0)
                if ev.triggered:
                    continue
                self._items.append(item)
                ev.succeed(item)
                progress = True
            # satisfy getters
            i = 0
            while i < len(self._getters) and self._items:
                ev, pred = self._getters[i]
                if ev.triggered:
                    self._getters.pop(i)
                    continue
                idx = None
                if pred is None:
                    idx = 0
                else:
                    for j, item in enumerate(self._items):
                        if pred(item):
                            idx = j
                            break
                if idx is None:
                    i += 1
                    continue
                item = self._items.pop(idx)
                self._getters.pop(i)
                ev.succeed(item)
                progress = True

    def __len__(self) -> int:
        return len(self._items)
