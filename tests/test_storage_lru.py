"""The one bounded store (:class:`repro.storage.lru.LRUStore`) against a model.

The model is an ordered dict (least recently used first) plus a pin count
per value.  Random sequences of ``get``, ``put``, ``pin``, ``release``,
``pop`` and ``clear`` must keep the store's live entries, their recency
order and its pins equal to the model's, and hand every value the store
let go of to ``on_evict`` exactly once -- never while it is pinned, except
by ``clear``, which disposes of everything.
"""

import math
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage.lru import LRUStore

KEYS = st.integers(0, 4)


class _Value:
    """A distinct stored value (identity is what pins follow)."""

    def __init__(self, n: int):
        self.n = n

    def __repr__(self) -> str:
        return f"v{self.n}"


class LRUStoreMachine(RuleBasedStateMachine):

    @initialize(bound=st.integers(1, 3))
    def build(self, bound):
        self.bound = bound
        self.disposed: list[_Value] = []
        self.store = LRUStore(bound, on_evict=self._on_evict)
        self.order: dict[int, _Value] = {}   # live entries, LRU first
        self.pins: dict[_Value, int] = {}    # value -> pins held
        self.removed: set[_Value] = set()    # out of the map, pinned
        self.expected: list[_Value] = []     # what must have been disposed
        self.evictions = self.deferred = 0
        self.made = self.losers = 0

    def _on_evict(self, value):
        assert self.pins.get(value, 0) == 0, f"{value} disposed while pinned"
        self.disposed.append(value)

    def _touch(self, key):
        self.order[key] = self.order.pop(key)

    def _take_out(self, value):
        if self.pins.get(value, 0):
            self.removed.add(value)
            self.deferred += 1
        else:
            self.expected.append(value)

    @rule(key=KEYS, pin=st.booleans())
    def get(self, key, pin):
        value = self.store.get(key, pin=pin)
        assert value is self.order.get(key)
        if value is not None:
            self._touch(key)
            if pin:
                self.pins[value] = self.pins.get(value, 0) + 1

    @rule(key=KEYS)
    def put(self, key):
        self.made += 1
        value = _Value(self.made)
        stored = self.store.put(key, value)
        if key in self.order:
            assert stored is self.order[key]  # first insert wins
            self.losers += 1
            self._touch(key)
            return
        assert stored is value
        self.order[key] = value
        while len(self.order) > self.bound:
            oldest = next(iter(self.order))
            self.evictions += 1
            self._take_out(self.order.pop(oldest))

    @precondition(lambda self: self.order or self.removed)
    @rule(data=st.data())
    def pin(self, data):
        value = data.draw(st.sampled_from(
            sorted([*self.order.values(), *self.removed], key=repr)))
        self.store.pin(value)
        self.pins[value] = self.pins.get(value, 0) + 1

    @precondition(lambda self: any(self.pins.values()))
    @rule(data=st.data())
    def release(self, data):
        value = data.draw(st.sampled_from(
            sorted([v for v, n in self.pins.items() if n], key=repr)))
        self.pins[value] -= 1
        if not self.pins[value] and value in self.removed:
            self.removed.discard(value)
            self.expected.append(value)
        self.store.release(value)

    @rule(key=KEYS)
    def pop(self, key):
        self.store.pop(key)
        if key in self.order:
            self._take_out(self.order.pop(key))

    @rule()
    def clear(self):
        self.expected += [*self.order.values(), *self.removed]
        self.order.clear()
        self.removed.clear()
        self.pins.clear()  # clear forgets pins: nothing waits any more
        self.store.clear()

    @invariant()
    def matches_model(self):
        assert len(self.store) <= self.bound
        assert self.store.items() == list(self.order.items())
        assert self.disposed == self.expected
        assert self.store.pinned == sum(1 for n in self.pins.values() if n)
        assert (self.store.evictions, self.store.deferred) == (
            self.evictions, self.deferred)

    def teardown(self):
        if not hasattr(self, "store"):
            return
        self.clear()
        assert len(set(map(id, self.disposed))) == len(self.disposed)
        assert len(self.disposed) == self.made - self.losers


LRUStoreMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None,
    derandomize=True)
test_lru_store_matches_model = LRUStoreMachine.TestCase


def test_lru_store_rejects_an_empty_bound():
    with pytest.raises(ValueError):
        LRUStore(0)
    assert LRUStore(math.inf).max_entries == math.inf


def test_lru_store_disposal_outside_its_lock():
    """``on_evict`` may call back into the store (the engine's callback
    takes other locks; a callback under the store's lock would deadlock)."""
    seen = []
    store = LRUStore(1, on_evict=lambda v: seen.append((v, "b" in store)))
    done = threading.Event()

    def fill():
        store.put("a", 1)
        store.put("b", 2)
        store.pop("b")
        done.set()

    thread = threading.Thread(target=fill, daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    assert done.is_set() and not thread.is_alive()
    assert seen == [(1, True), (2, False)]


def test_lru_store_disposes_every_value_when_a_callback_raises():
    """A failing ``on_evict`` (a worker that cannot be told) must not leave
    the other values of a ``clear`` undisposed."""
    seen = []

    def dispose(value):
        seen.append(value)
        if value == 1:
            raise RuntimeError("notify failed")

    store = LRUStore(3, on_evict=dispose)
    for key in range(3):
        store.put(key, key)
    with pytest.raises(RuntimeError, match="notify failed"):
        store.clear()
    assert seen == [0, 1, 2] and len(store) == 0
