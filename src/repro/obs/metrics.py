"""Thread-safe counter and latency-window primitives.

Each counter lives with the object that owns it -- the service and its
sessions (:mod:`repro.service.metrics`), the engine caches
(``QueryEngine.stats()``), the execution backends, the protocol's wire
accounting -- and ``FeedbackService.metrics_report()`` composes them into
the one documented ``metrics`` reply (``docs/observability.md``).  This
module holds the two primitives those owners share:

* :class:`Counter` -- a monotonic integer with a lock, so ``inc()`` from
  the scheduler loop and executor threads never loses an update (a bare
  ``+= 1`` is two bytecodes and races under free-threaded interleavings);
* :class:`Histogram` -- a bounded window of recent observations with
  nearest-rank percentiles.  Percentiles copy the window under the lock
  and sort *outside* it, so a metrics read never blocks the hot recording
  path.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["Counter", "Histogram"]


class Counter:
    """A lock-protected integer counter (atomic ``inc``)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self._value})"


class Histogram:
    """Bounded window of recent observations with nearest-rank percentiles.

    ``observe`` appends under the lock (O(1)); ``percentile`` copies the
    window under the lock and sorts the copy outside it, so percentile
    reads -- which run on the metrics/report path -- never hold the lock
    for the O(n log n) sort while recorders contend from executor threads.
    """

    __slots__ = ("_samples", "_lock", "count", "total")

    def __init__(self, window: int = 512):
        if window < 1:
            raise ValueError("window must be at least 1")
        self._samples: "deque[float]" = deque(maxlen=window)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self.count += 1
            self.total += value

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the window."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return 0.0
        samples.sort()
        rank = max(1, int(-(-q * len(samples) // 100)))  # ceil without floats
        return samples[min(rank, len(samples)) - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)
