"""Counters and latency quantiles for the feedback service.

Each :class:`SessionMetrics` / :class:`ServiceMetrics` owns its counters:
plain atomic :class:`~repro.obs.metrics.Counter` objects, because the same
counter is bumped from the scheduler loop *and* executor threads (a bare
``+= 1`` races).  The attribute names read the values (tests and callers
keep reading ``metrics.events_received``), :meth:`inc` is the only writer,
and ``snapshot()`` builds one row of the ``metrics`` reply that
``FeedbackService.metrics_report()`` composes (the glossary in
``docs/observability.md`` documents every key).

Latency quantiles come from :class:`~repro.obs.metrics.Histogram`, whose
``percentile`` copies the sample window under the lock and sorts the copy
outside it -- the metrics read path must not hold the lock for an
O(n log n) sort while ``observe()`` contends from executor threads.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Histogram

__all__ = ["SessionMetrics", "ServiceMetrics"]


class _CounterView:
    """Shared machinery: named atomic counters + read-only attribute views."""

    #: Counter names, in report order; subclasses define them.
    COUNTERS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._counters = {name: Counter() for name in self.COUNTERS}
        self.run_latency = Histogram()

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically bump one counter (the only mutation path)."""
        self._counters[name].inc(amount)

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


class SessionMetrics(_CounterView):
    """Per-session counters, updated by the queue, scheduler and executor."""

    COUNTERS = (
        "events_received",
        "events_coalesced",
        "events_shed",
        "events_executed",
        "runs",
        # Runs whose displayed set (hence every window) was provably
        # unchanged -- the frame was served without re-rendering anything.
        "snapshots_reused",
    )


class ServiceMetrics(_CounterView):
    """Global counters of one :class:`~repro.service.service.FeedbackService`."""

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
