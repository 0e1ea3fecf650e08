"""The one bounded store: a least-recently-used map with pins.

Every bounded cache of the package is an :class:`LRUStore`: both levels of
each :class:`~repro.core.plan.EvaluationCache`, the engine's join tables,
the published shared-memory tables of
:class:`~repro.backend.shm.ShmColumnStore` and a worker's attached tables.
The module imports nothing from the package, so a spawned worker can use
it without loading the engine.

An entry that is in use can be *pinned*.  Evicting or removing a pinned
entry takes it out of the map at once -- the bound keeps holding for new
entries -- but hands it to ``on_evict`` only after its last release, so
whoever holds the pin never sees the value disposed under it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["LRUStore"]

V = TypeVar("V")


class _Pin:
    """The pins on one value, and whether the map has let it go."""

    __slots__ = ("value", "count", "removed")

    def __init__(self, value):
        self.value = value
        self.count = 0
        self.removed = False


class LRUStore(Generic[V]):
    """A thread-safe, bounded, pin-aware LRU map.

    ``max_entries`` bounds the live entries (``math.inf`` for none); a
    :meth:`get` hit refreshes recency.  Inserts are first-wins: :meth:`put`
    of a live key keeps the stored value and returns it, so a caller that
    built a value racing another can dispose of the loser.  Every value
    evicted for room, removed by :meth:`pop` or dropped by :meth:`clear`
    reaches ``on_evict`` exactly once, outside the store's lock.
    """

    def __init__(self, max_entries: float,
                 on_evict: Callable[[V], None] | None = None):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: Entries pushed out by the bound.
        self.evictions = 0
        #: Evictions and removals that waited for a pinned entry's release.
        self.deferred = 0
        self._on_evict = on_evict
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, V] = OrderedDict()
        #: id(value) -> its pins (the record holds the value, so the id
        #: stays unique while it is pinned).
        self._pinned: dict[int, _Pin] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership without touching recency."""
        with self._lock:
            return key in self._data

    def items(self) -> list[tuple[Hashable, V]]:
        """The live entries, least recently used first."""
        with self._lock:
            return list(self._data.items())

    @property
    def pinned(self) -> int:
        """How many values hold at least one pin."""
        with self._lock:
            return len(self._pinned)

    def get(self, key: Hashable, pin: bool = False) -> V | None:
        """The value under ``key`` (refreshing it), pinned when ``pin``."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
                if pin:
                    self._pin(value)
            return value

    def put(self, key: Hashable, value: V) -> V:
        """Store ``value`` unless ``key`` is live; return the stored value."""
        with self._lock:
            stored = self._data.get(key)
            if stored is not None:
                self._data.move_to_end(key)
                return stored
            self._data[key] = value
            doomed = []
            while len(self._data) > self.max_entries:
                self.evictions += 1
                doomed += self._remove(self._data.popitem(last=False)[1])
        self._dispose(doomed)
        return value

    def pop(self, key: Hashable) -> None:
        """Remove ``key``'s entry; disposal waits for its last release."""
        with self._lock:
            doomed = (self._remove(self._data.pop(key))
                      if key in self._data else [])
        self._dispose(doomed)

    def pin(self, value: V) -> None:
        """Hold ``value`` against disposal until a matching :meth:`release`."""
        with self._lock:
            self._pin(value)

    def release(self, value: V) -> None:
        """Drop one pin; a deferred disposal completes on the last one."""
        with self._lock:
            pin = self._pinned.get(id(value))
            if pin is None:
                return
            pin.count -= 1
            if pin.count > 0:
                return
            del self._pinned[id(value)]
            if not pin.removed:
                return
        self._dispose([value])

    def clear(self) -> None:
        """Dispose of every value, pinned or not, and forget every pin."""
        with self._lock:
            doomed = list(self._data.values())
            doomed += [pin.value for pin in self._pinned.values()
                       if pin.removed]
            self._data.clear()
            self._pinned.clear()
        self._dispose(doomed)

    def _pin(self, value: V) -> None:
        self._pinned.setdefault(id(value), _Pin(value)).count += 1

    def _remove(self, value: V) -> list[V]:
        """Take ``value`` out; return it when it may be disposed now."""
        pin = self._pinned.get(id(value))
        if pin is None:
            return [value]
        pin.removed = True
        self.deferred += 1
        return []

    def _dispose(self, values: list[V]) -> None:
        """Hand each value to ``on_evict``; a call that raises stops none
        of the others (the first error is re-raised after the last)."""
        if self._on_evict is None:
            return
        error = None
        for value in values:
            try:
                self._on_evict(value)
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error
