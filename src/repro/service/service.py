"""The asyncio feedback service: many sessions, one engine, fair turns.

:class:`FeedbackService` multiplexes concurrent interactive sessions over
one shared :class:`~repro.core.engine.QueryEngine`.  The moving parts:

* **admission control** -- at most ``max_sessions`` concurrent sessions;
  an open beyond that is rejected (counted, with a clear error) instead of
  degrading every existing loop;
* **latest-wins queues** -- each session's events coalesce per control
  (:mod:`repro.service.coalesce`), so a 200-event slider drag that arrives
  while the session's previous run is still executing collapses into one
  pending batch;
* **a fair round-robin scheduler** -- ready sessions (pending events, no
  run in flight) are dispatched in rotation, never more than
  ``max_inflight`` pipeline runs at once.  A session with a firehose of
  events cannot starve a session with a single pending slider move: each
  dispatch takes one whole coalesced batch and then goes to the back of
  the rotation;
* **offloaded execution** -- pipeline runs are CPU-bound NumPy work, so
  they run on a dedicated thread pool via ``run_in_executor`` (the shard
  fan-out below them uses the process-shared shard pool); the event loop
  itself only routes events and snapshots;
* **backpressure** -- per-session queue depth is bounded; beyond it the
  queue sheds oldest-coalesced-first and the submit response says so.

Deterministic teardown: :meth:`aclose` stops the scheduler, drains
in-flight runs, joins the dispatch pool and (when the service created the
engine itself) closes the engine, which also shuts the shard pools down.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, fields

from repro.core.engine import PipelineConfig, QueryEngine
from repro.core.plan import CacheStats
from repro.interact.events import SessionEvent
from repro.obs import Tracer
from repro.obs import trace as obs
from repro.service.metrics import ServiceMetrics
from repro.service.session import ServiceSession, SessionLimitError, SessionRegistry
from repro.service.snapshot import FrameSnapshot
from repro.storage.database import Database
from repro.storage.table import Table
from repro.vis.layout import MultiWindowLayout

__all__ = ["ServiceConfig", "FeedbackService", "SessionLimitError"]

#: The engine counters :meth:`FeedbackService.metrics_report` breaks out
#: under ``incremental``: every :class:`CacheStats` field from
#: ``incremental_events`` on (the fields before it count LRU traffic).
_STAT_NAMES = [stat.name for stat in fields(CacheStats)]
_INCREMENTAL_STATS = _STAT_NAMES[_STAT_NAMES.index("incremental_events"):]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the multi-session scheduler."""

    #: Admission control: maximum concurrent sessions.
    max_sessions: int = 64
    #: Maximum pipeline runs in flight at once (dispatch pool size).
    max_inflight: int = 4
    #: Per-session coalescing-queue depth (distinct pending controls).
    max_queue_depth: int = 64
    #: Expire sessions idle longer than this (None disables expiry).
    idle_ttl: float | None = 600.0
    #: Interval between idle-expiry sweeps (they run on schedule regardless
    #: of traffic, so abandoned sessions expire even under constant load).
    sweep_interval: float = 30.0
    #: Recent frames retained per session for the delta stream: a client
    #: whose acknowledged frame is still in the ring gets a delta, anything
    #: older resyncs with a full snapshot.  Superseded frames keep only
    #: what a delta is encoded against (windows and displayed order, no
    #: O(n) array), so the footprint is bounded and small; 1 disables
    #: multi-frame catch-up (previous-frame deltas only happen when the
    #: client pulls every frame).
    frame_retention: int = 4
    #: Span tracing of the event path (see :mod:`repro.obs.trace`).  Off by
    #: default: disabled tracing costs one context-variable read per
    #: instrumentation point.
    trace_enabled: bool = False
    #: Fraction of events traced when tracing is on (1.0 = every event).
    trace_sample: float = 1.0
    #: Events slower than this keep their full span tree plus an explain
    #: record in the slow ring, retrievable via the ``trace`` protocol op.
    trace_budget_ms: float = 250.0
    #: Bounded rings of retained traces (recent / over-budget).
    trace_ring: int = 32

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if self.idle_ttl is not None and self.idle_ttl <= 0:
            raise ValueError("idle_ttl must be positive (or None)")
        if self.sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        if self.frame_retention < 1:
            raise ValueError("frame_retention must be at least 1")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        if self.trace_budget_ms < 0:
            raise ValueError("trace_budget_ms must be non-negative")
        if self.trace_ring < 1:
            raise ValueError("trace_ring must be at least 1")


class FeedbackService:
    """Serve many interactive visual-feedback loops over one engine.

    Parameters
    ----------
    source:
        A :class:`~repro.storage.database.Database`/:class:`Table`, or an
        existing :class:`~repro.core.engine.QueryEngine` to share.  When a
        source is given the service creates (and on :meth:`aclose` closes)
        its own engine.
    config:
        Default :class:`~repro.core.engine.PipelineConfig` for the private
        engine (ignored when an engine is passed).
    service_config:
        Scheduler tunables, see :class:`ServiceConfig`.
    layout:
        Window layout used for snapshot rendering (shared by all sessions).

    Use as an async context manager, or call :meth:`start`/:meth:`aclose`.
    """

    def __init__(self, source: Database | Table | QueryEngine,
                 config: PipelineConfig | None = None,
                 service_config: ServiceConfig | None = None,
                 layout: MultiWindowLayout | None = None):
        if isinstance(source, QueryEngine):
            self.engine = source
            self._owns_engine = False
        else:
            self.engine = QueryEngine(source, config)
            self._owns_engine = True
        self.config = service_config or ServiceConfig()
        self.layout = layout or MultiWindowLayout()
        self.registry = SessionRegistry()
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(
            enabled=self.config.trace_enabled,
            sample_rate=self.config.trace_sample,
            budget_ms=self.config.trace_budget_ms,
            ring_size=self.config.trace_ring,
            slow_ring_size=self.config.trace_ring,
        )
        self._rotation: "deque[str]" = deque()
        self._inflight = 0
        #: Sessions admitted and not yet closed/expired, including opens
        #: still awaiting their prepare.  This (not the registry length,
        #: which lags behind while create() runs on a worker thread) is the
        #: admission-control authority; it is only touched from the event
        #: loop, so concurrent opens cannot race past ``max_sessions``.
        self._admitted = 0
        #: Last unexpected scheduler error (the loop keeps going; this is
        #: surfaced for observability rather than silently dropped).
        self.last_scheduler_error: Exception | None = None
        self._wake = asyncio.Event()
        self._scheduler_task: asyncio.Task | None = None
        self._run_tasks: set[asyncio.Task] = set()
        self._executor = None
        self._closing = False
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "FeedbackService":
        if self._started:
            return self
        self._closing = False
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-service",
        )
        self._scheduler_task = asyncio.create_task(
            self._scheduler_loop(), name="repro-service-scheduler"
        )
        self._started = True
        return self

    async def aclose(self) -> None:
        """Stop scheduling, drain in-flight runs, join pools (idempotent)."""
        if not self._started or self._closing:
            self._closing = True
            return
        self._closing = True
        self._wake.set()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
        if self._run_tasks:
            await asyncio.gather(*self._run_tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_engine:
            # close() may drain shard-pool users of other engines; keep the
            # event loop free while it does.
            await asyncio.get_running_loop().run_in_executor(None, self.engine.close)
        self._started = False

    async def __aenter__(self) -> "FeedbackService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def _require_started(self) -> None:
        if not self._started or self._closing:
            raise RuntimeError("FeedbackService is not running (use 'async with' or start())")

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #
    async def open_session(self, query, **overrides) -> str:
        """Admit a new session, run its initial execution, return its id.

        ``overrides`` are per-session pipeline-config overrides.  Raises
        :class:`SessionLimitError` when the session cap is reached.
        """
        self._require_started()
        if self._admitted >= self.config.max_sessions:
            self.metrics.inc("sessions_rejected")
            raise SessionLimitError(
                f"session limit reached ({self.config.max_sessions}); retry later"
            )
        loop = asyncio.get_running_loop()
        self._admitted += 1
        session = None
        try:
            # Only the CPU-heavy prepare runs on the worker thread; the
            # registry itself is touched exclusively from the event loop
            # (metrics_report and the expiry sweep iterate it there).
            prepared = await loop.run_in_executor(
                self._executor,
                lambda: self.engine.prepare(query, **overrides),
            )
            session = self.registry.add(
                prepared, max_queue_depth=self.config.max_queue_depth,
                layout=self.layout,
                frame_retention=self.config.frame_retention,
            )
            self._rotation.append(session.id)
            # The initial run gives the client its first frame and warms
            # the session's plan against the shared caches.  It is traced
            # like any event: the cold execution is exactly the run worth
            # explaining when it blows the budget.
            trace = self.tracer.start("open", session=session.id)
            await loop.run_in_executor(
                self._executor,
                (lambda: session.execute_batch([])) if trace is None
                else (lambda: session.execute_batch([], trace=trace)),
            )
            self.tracer.finish(trace)
        except Exception:
            # A session whose very first prepare/execution fails is not
            # admitted (and never counted as opened or closed).
            self._admitted -= 1
            if session is not None:
                self.registry.close(session.id)
                try:
                    self._rotation.remove(session.id)
                except ValueError:
                    pass
            raise
        self.metrics.inc("sessions_opened")
        session.idle.set()
        return session.id

    async def submit(self, session_id: str, event: SessionEvent,
                     received_at: float | None = None) -> dict[str, object]:
        """Enqueue one event; returns the queue verdict immediately.

        The response never waits for execution: feedback is pulled with
        :meth:`snapshot` (typically at the client's frame rate), which is
        what lets bursts coalesce behind the running frame.

        ``received_at`` (a ``perf_counter`` timestamp) lets the protocol
        layer backdate the trace to when the wire bytes arrived, so the
        span tree covers parse + routing, not just the queue.
        """
        self._require_started()
        session = self.registry.attach(session_id)
        status = session.enqueue(event)
        self.metrics.inc("events_received")
        if status == "coalesced":
            self.metrics.inc("events_coalesced")
        elif status == "shed":
            self.metrics.inc("events_shed")
        # Trace lifecycle: the first submit after a dispatch opens the
        # batch's trace (root backdated to the wire receive) and starts the
        # coalesce-wait span; later submits coalescing into the same batch
        # only mark themselves on it.  The scheduler takes the pending
        # trace when it drains the batch.
        if session.pending_trace is None:
            trace = self.tracer.start(
                "event", t0=received_at, session=session_id)
            if trace is not None:
                recv = trace.begin("protocol.receive", t0=received_at,
                                   event=type(event).__name__, status=status)
                trace.end(recv)
                wait = trace.begin("coalesce.wait")
                session.pending_trace = (trace, wait)
        else:
            trace, _ = session.pending_trace
            recv = trace.begin("protocol.receive", t0=received_at,
                               event=type(event).__name__, status=status)
            trace.end(recv)
        self._wake.set()
        return {"status": status, "queue_depth": session.queue.depth}

    async def snapshot(self, session_id: str, wait: bool = True) -> FrameSnapshot:
        """The latest frame of a session; with ``wait`` the *settled* frame.

        ``wait=True`` awaits until every event submitted so far has been
        executed (the queue is empty and no run is in flight) -- the state
        a user sees when they stop dragging.  ``wait=False`` returns the
        newest completed frame immediately.
        """
        self._require_started()
        session = self.registry.attach(session_id)
        if wait:
            await session.idle.wait()
            if session.closed:
                # Closed/expired while we waited: pending events were
                # dropped, so the last frame would masquerade as settled.
                raise SessionLimitError(
                    f"session {session_id!r} was closed while awaiting its snapshot"
                )
        if session.error is not None:
            raise session.error
        if session.snapshot is None:
            raise RuntimeError(f"session {session_id!r} has no snapshot yet")
        return session.snapshot

    async def close_session(self, session_id: str) -> None:
        self._require_started()
        self.registry.close(session_id)
        self.metrics.inc("sessions_closed")
        self._admitted -= 1
        try:
            self._rotation.remove(session_id)
        except ValueError:
            pass

    def metrics_report(self) -> dict[str, object]:
        """Global, per-session and engine-cache counters in one dictionary.

        Composed at read time from the counters' owners (the service's and
        each session's metrics, the window caches, ``engine.stats()``); the
        ``metrics`` protocol op serves it with the protocol's ``wire``
        section added, and ``docs/observability.md`` documents every key.

        ``incremental`` breaks the site-entry patch and dirty-shard
        counters out of the engine totals so latency regressions can be
        attributed: a p95 increase with a falling ``shards_reused`` share
        means events stopped patching and fell back to full recomputes.
        Site entries live on each session's prepared query, so no count
        bound evicts them; they cost what the live sessions already cost.
        """
        engine = self.engine.stats()
        return {
            "service": self.metrics.snapshot(),
            "sessions": {
                session.id: session.metrics_snapshot() for session in self.registry
            },
            "engine": engine,
            # Execution-backend health: which backend serves shard work,
            # worker liveness, and how often events fell back in-process.
            "backend": engine.get("backend"),
            "incremental": {
                ("events" if name == "incremental_events" else name): engine[name]
                for name in _INCREMENTAL_STATS
            },
        }

    def trace_report(self, session_id: str | None = None,
                     include_recent: bool = False,
                     limit: int = 16) -> list[dict[str, object]]:
        """Retained traces, newest last (what the ``trace`` protocol op serves).

        By default only the *slow* ring (events over
        :attr:`ServiceConfig.trace_budget_ms`, each carrying its explain
        record); ``include_recent`` adds the ring of recent traces.
        ``session_id`` filters to one session's traces.
        """
        traces = self.tracer.slow_traces()
        if include_recent:
            seen = {id(t) for t in traces}
            traces = [
                t for t in self.tracer.recent_traces() if id(t) not in seen
            ] + traces
        if session_id is not None:
            traces = [
                t for t in traces if t.attrs.get("session") == session_id
            ]
        traces.sort(key=lambda t: t.trace_id)
        if limit > 0:
            traces = traces[-limit:]
        return [t.to_dict() for t in traces]

    # ------------------------------------------------------------------ #
    # Scheduler
    # ------------------------------------------------------------------ #
    async def _scheduler_loop(self) -> None:
        loop = asyncio.get_running_loop()
        next_sweep = loop.time() + self.config.sweep_interval
        while not self._closing:
            self._wake.clear()
            try:
                self._dispatch_ready()
                # Expiry runs on its own schedule: under steady traffic the
                # wake event fires constantly, so the sweep must not depend
                # on a wait timing out.
                if self.config.idle_ttl is not None and loop.time() >= next_sweep:
                    next_sweep = loop.time() + self.config.sweep_interval
                    for session in self.registry.expire_idle(self.config.idle_ttl):
                        self.metrics.inc("sessions_expired")
                        self._admitted -= 1
                        try:
                            self._rotation.remove(session.id)
                        except ValueError:
                            pass
            except Exception as exc:  # noqa: BLE001 - scheduler must survive
                # A bug in dispatch/expiry must not silently stop all
                # scheduling; record it and keep serving.
                self.last_scheduler_error = exc
            try:
                if self.config.idle_ttl is None:
                    await self._wake.wait()
                else:
                    await asyncio.wait_for(
                        self._wake.wait(),
                        timeout=max(0.0, next_sweep - loop.time()),
                    )
            except asyncio.TimeoutError:
                pass

    def _dispatch_ready(self) -> None:
        """One fair pass: dispatch ready sessions in rotation order.

        Each visited session moves to the back of the rotation whether or
        not it was ready, so over consecutive passes every ready session is
        served before any session is served twice.
        """
        for _ in range(len(self._rotation)):
            if self._inflight >= self.config.max_inflight:
                return
            session_id = self._rotation[0]
            self._rotation.rotate(-1)
            session = self.registry.get(session_id)
            if session is None:
                # Closed session still in rotation: drop it from the back.
                try:
                    self._rotation.remove(session_id)
                except ValueError:
                    pass
                continue
            if not session.ready:
                continue
            batch = session.take_batch()
            session.running = True
            self._inflight += 1
            # The batch's trace leaves the queue with the batch: close the
            # coalesce-wait span, open the scheduler-queue span (ends when
            # an executor thread actually picks the batch up).
            trace = dispatch_span = None
            if session.pending_trace is not None:
                trace, wait_span = session.pending_trace
                session.pending_trace = None
                trace.end(wait_span, events=len(batch))
                dispatch_span = trace.begin("scheduler.queue")
            task = asyncio.create_task(self._run(session, batch, trace,
                                                 dispatch_span))
            self._run_tasks.add(task)
            task.add_done_callback(self._run_tasks.discard)

    async def _run(self, session: ServiceSession, batch: list[SessionEvent],
                   trace: "obs.Trace | None" = None,
                   dispatch_span: int | None = None) -> None:
        loop = asyncio.get_running_loop()

        def _execute():
            # Untraced runs keep the historical one-argument call so test
            # doubles and wrappers around execute_batch stay compatible.
            if trace is None:
                return session.execute_batch(batch)
            if dispatch_span is not None:
                # Executor pickup: the scheduler-queue span ends here, on
                # the worker thread, the instant before execution starts.
                trace.end(dispatch_span)
            return session.execute_batch(batch, trace=trace)

        try:
            snapshot = await loop.run_in_executor(self._executor, _execute)
            self.metrics.inc("runs")
            self.metrics.inc("events_executed", len(batch))
            self.metrics.run_latency.observe(snapshot.run_seconds)
            self.tracer.finish(trace, run_seconds=snapshot.run_seconds)
        except Exception as exc:  # noqa: BLE001 - surfaced via snapshot()
            # A failed batch poisons only this session's next snapshot; the
            # service keeps serving everyone else.
            session.error = exc
            self.tracer.finish(trace, error=repr(exc))
        finally:
            session.running = False
            self._inflight -= 1
            if not session.queue:
                session.idle.set()
            self._wake.set()
