"""A labeled counter/gauge/histogram registry for the whole pipeline.

The service, the engine caches and the execution backends
each grew their own counter dicts; this module is the one place they meet.
Three primitive metric types:

* :class:`Counter` -- a monotonic (or settable) integer with a lock, so
  ``inc()`` from the scheduler loop and executor threads never loses an
  update (a bare ``+= 1`` is two bytecodes and races under free-threaded
  interleavings);
* :class:`Gauge` -- a point-in-time value (queue depth, pool size);
* :class:`Histogram` -- a bounded window of recent observations with
  nearest-rank percentiles, generalizing the service's latency window.
  Percentiles copy the window under the lock and sort *outside* it, so a
  metrics read never blocks the hot recording path.

:class:`MetricsRegistry` names and labels them (``name`` plus a
``key=value`` label set, Prometheus-style) and additionally accepts
*collectors* -- callables sampled at report time -- so the engine's
existing lock-protected cache counters and the backends' stats dicts show
up in the same report without being rewritten.  ``stats()`` and
``metrics_report()`` keep their historical keys; the registry is the
storage and they are views.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelPairs = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_name(name: str, labels: LabelPairs) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A lock-protected integer counter (atomic ``inc``/``set``)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> int:
        with self._lock:
            self._value += amount
            return self._value

    def set(self, value: int) -> None:
        """Overwrite the value (for counters mirroring an external total)."""
        with self._lock:
            self._value = int(value)

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self._value})"


class Gauge:
    """A point-in-time value; ``set`` wins, ``inc``/``dec`` adjust."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self._value})"


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

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "p50": self.p50,
            "p95": self.p95,
        }


class MetricsRegistry:
    """Named, labeled metrics plus report-time collectors, in one place."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelPairs], Counter] = {}
        self._gauges: dict[tuple[str, LabelPairs], Gauge] = {}
        self._histograms: dict[tuple[str, LabelPairs], Histogram] = {}
        self._collectors: dict[str, Callable[[], Any]] = {}

    # -------------------------------------------------------------- #
    # Metric creation (get-or-create; instances are stable handles)
    # -------------------------------------------------------------- #
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
            return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
            return metric

    def histogram(self, name: str, window: int = 512, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(window)
            return metric

    # -------------------------------------------------------------- #
    # Collectors: existing counter owners sampled at report time
    # -------------------------------------------------------------- #
    def register_collector(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a callable whose result appears under ``name`` in reports."""
        with self._lock:
            self._collectors[name] = fn

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #
    def remove(self, name: str, **labels: Any) -> None:
        """Drop a metric (e.g. when its session closes)."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters.pop(key, None)
            self._gauges.pop(key, None)
            self._histograms.pop(key, None)

    def collect(self) -> dict[str, Any]:
        """All registered metric values, label-qualified, one flat dict each."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                _format_name(name, labels): metric.value
                for (name, labels), metric in sorted(counters.items())
            },
            "gauges": {
                _format_name(name, labels): metric.value
                for (name, labels), metric in sorted(gauges.items())
            },
            "histograms": {
                _format_name(name, labels): metric.snapshot()
                for (name, labels), metric in sorted(histograms.items())
            },
        }

    def report(self) -> dict[str, Any]:
        """:meth:`collect` plus every collector's sampled output."""
        out = self.collect()
        with self._lock:
            collectors = list(self._collectors.items())
        for name, fn in collectors:
            try:
                out[name] = fn()
            except Exception as exc:  # noqa: BLE001 - a report must not raise
                out[name] = {"error": repr(exc)}
        return out
