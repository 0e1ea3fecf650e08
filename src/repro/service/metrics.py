"""Counters and latency quantiles for the feedback service.

Storage lives in :mod:`repro.obs.metrics`: every counter here is an atomic
:class:`~repro.obs.metrics.Counter` in a shared
:class:`~repro.obs.metrics.MetricsRegistry`, because the same counter is
bumped from the scheduler loop *and* executor threads (a bare ``+= 1``
races).  :class:`SessionMetrics`/:class:`ServiceMetrics` are views: they
expose the historical attribute names read-only (tests and callers keep
reading ``metrics.events_received``) and their ``snapshot()`` dictionaries
keep the exact keys CI asserts on; writers go through :meth:`inc`.

Latency quantiles come from :class:`~repro.obs.metrics.Histogram`, whose
``percentile`` copies the sample window under the lock and sorts the copy
outside it -- the metrics read path must not hold the lock for an
O(n log n) sort while ``record()`` contends from executor threads.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["LatencyWindow", "SessionMetrics", "ServiceMetrics"]


class LatencyWindow(Histogram):
    """A bounded window of recent durations with nearest-rank percentiles."""

    def __init__(self, maxlen: int = 512):
        super().__init__(window=maxlen)

    def record(self, seconds: float) -> None:
        self.observe(seconds)


class _CounterView:
    """Shared machinery: named atomic counters + read-only attribute views."""

    #: Counter names, in report order; subclasses define them.
    COUNTERS: tuple[str, ...] = ()
    #: Registry name prefix (``session``/``service``).
    PREFIX = ""

    def __init__(self, registry: MetricsRegistry | None = None, **labels: str):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = labels
        self._counters = {
            name: self.registry.counter(f"{self.PREFIX}_{name}", **labels)
            for name in self.COUNTERS
        }
        self.run_latency = LatencyWindow()

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically bump one counter (the only mutation path)."""
        self._counters[name].inc(amount)

    def set(self, name: str, value: int) -> None:
        """Overwrite a counter mirroring an external total (render cache)."""
        self._counters[name].set(value)

    def __getattr__(self, name: str):
        # Only consulted for names missing from the instance dict: serve
        # the counter values so ``metrics.events_received`` keeps reading.
        try:
            return self.__dict__["_counters"][name].value
        except KeyError:
            raise AttributeError(name) from None

    def snapshot(self, **extra: object) -> dict[str, object]:
        """One row of the metrics report: every counter, then ``extra``,
        then the run latency quantiles in milliseconds."""
        return {
            **{name: counter.value for name, counter in self._counters.items()},
            **extra,
            "run_p50_ms": round(self.run_latency.p50 * 1e3, 3),
            "run_p95_ms": round(self.run_latency.p95 * 1e3, 3),
        }

    def release(self) -> None:
        """Drop this view's counters from the registry (session closed)."""
        for name in self.COUNTERS:
            self.registry.remove(f"{self.PREFIX}_{name}", **self.labels)


class SessionMetrics(_CounterView):
    """Per-session counters, updated by the queue, scheduler and executor."""

    PREFIX = "session"
    COUNTERS = (
        "events_received",
        "events_coalesced",
        "events_shed",
        "events_executed",
        "runs",
        "render_hits",
        "render_misses",
        # Runs whose displayed set (hence every window) was provably
        # unchanged -- the frame was served without re-rendering anything.
        "snapshots_reused",
    )


class ServiceMetrics(_CounterView):
    """Global counters of one :class:`~repro.service.service.FeedbackService`."""

    PREFIX = "service"
    COUNTERS = (
        "sessions_opened",
        "sessions_closed",
        "sessions_expired",
        "sessions_rejected",
        "events_received",
        "events_coalesced",
        "events_shed",
        "events_executed",
        "runs",
    )
