"""Session lifecycle for the multi-session feedback service.

A :class:`ServiceSession` is one user's interactive feedback loop: a
:class:`~repro.interact.session.VisDBSession` over a
:class:`~repro.core.engine.PreparedQuery` on the shared engine, the
session's :class:`~repro.service.coalesce.CoalescingQueue`, its rendered
window cache and its metrics.  The :class:`SessionRegistry` owns the id
space and the add/attach/expire lifecycle; the scheduler in
:mod:`repro.service.service` decides when a session actually runs.

Threading contract: queue and lifecycle state are touched only from the
event-loop thread; :meth:`ServiceSession.execute_batch` is the only method
that runs on an executor thread -- at most one at a time per session --
and it touches only the session's :class:`VisDBSession` (prepared query
and change history), the window cache and the metrics (all
session-private -- cross-session state lives in the engine's thread-safe
caches).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Iterator

import numpy as np

from repro.core.engine import PreparedQuery
from repro.core.result import QueryFeedback
from repro.obs import trace as obs
from repro.interact.events import QUERY_EVENTS, SessionEvent
from repro.interact.session import VisDBSession
from repro.service.coalesce import CoalescingQueue
from repro.service.metrics import SessionMetrics
from repro.service.snapshot import FrameSnapshot, WindowCache
from repro.vis.layout import MultiWindowLayout

__all__ = ["ServiceSession", "SessionRegistry", "SessionLimitError",
           "UnknownSessionError"]


class SessionLimitError(RuntimeError):
    """Raised when admission control refuses a new session."""


class UnknownSessionError(KeyError):
    """A session id that does not exist (closed, expired, or never opened).

    A ``KeyError`` subclass so callers treating registry lookups as plain
    mapping access keep working; the protocol adapter maps it by *type* to
    the stable ``unknown-session`` wire error code.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0] if self.args else ""


class ServiceSession:
    """One interactive session multiplexed onto the shared engine."""

    def __init__(self, session_id: str, prepared: PreparedQuery,
                 max_queue_depth: int = 64,
                 layout: MultiWindowLayout | None = None,
                 frame_retention: int = 4,
                 clock=time.monotonic):
        self.id = session_id
        #: The interactive loop: the prepared query, its change history and
        #: the rollback of failed batches.  It recalculates only in
        #: :meth:`execute_batch`.
        self.visdb = VisDBSession(prepared.engine.source, prepared,
                                  auto_recalculate=False)
        self.queue = CoalescingQueue(max_depth=max_queue_depth)
        self.metrics = SessionMetrics()
        self.window_cache = WindowCache(layout)
        self._clock = clock
        self.created_at = clock()
        self.last_active = self.created_at
        #: Frames built so far; the newest snapshot's ``frame_id``.  The one
        #: counter numbering this session's frames on the wire.
        self.frame_id = 0
        self.running = False
        self.closed = False
        #: Last error raised by a pipeline run (cleared by the next success).
        self.error: Exception | None = None
        self.feedback: QueryFeedback | None = None
        self.snapshot: FrameSnapshot | None = None
        #: Recent snapshots, newest last, replaced in one assignment so the
        #: protocol layer (event-loop side) always reads a consistent ring
        #: while runs complete on worker threads.  Retention bounds how far
        #: a streaming client may lag and still be served a delta instead
        #: of a full resync; every frame but the newest is kept in its
        #: :meth:`~FrameSnapshot.superseded` form (windows and displayed
        #: order, no O(n) arrays), so retained frames are cheap.
        self.frame_retention = max(1, int(frame_retention))
        self.frame_history: tuple[FrameSnapshot, ...] = ()
        #: ``(trace, coalesce_wait_span_id)`` of the events waiting in the
        #: queue; started by the first submit after a dispatch, taken by
        #: the scheduler when it drains the batch.  Loop-confined.
        self.pending_trace: tuple | None = None
        #: Set while the session has no pending events and no running batch.
        self.idle = asyncio.Event()

    # ------------------------------------------------------------------ #
    # Event-loop side
    # ------------------------------------------------------------------ #
    def touch(self) -> None:
        self.last_active = self._clock()

    def enqueue(self, event: SessionEvent) -> str:
        """Admit one event into the coalescing queue; returns the queue verdict."""
        if self.closed:
            raise SessionLimitError(f"session {self.id!r} is closed")
        if not isinstance(event, QUERY_EVENTS):
            raise TypeError(
                f"the feedback service executes query-modification events "
                f"({', '.join(t.__name__ for t in QUERY_EVENTS)}); "
                f"got {type(event).__name__}"
            )
        self.touch()
        status = self.queue.put(event)
        self.metrics.inc("events_received")
        if status == "coalesced":
            self.metrics.inc("events_coalesced")
        elif status == "shed":
            self.metrics.inc("events_shed")
        self.idle.clear()
        return status

    @property
    def prepared(self) -> PreparedQuery:
        """The session's prepared query on the shared engine."""
        return self.visdb.prepared

    @property
    def ready(self) -> bool:
        """True if the session has pending events and no batch in flight."""
        return not self.closed and not self.running and bool(self.queue)

    @property
    def frames(self) -> tuple[FrameSnapshot | None, FrameSnapshot | None]:
        """The ``(previous, current)`` snapshot pair (None-padded)."""
        history = self.frame_history
        if not history:
            return (None, None)
        if len(history) == 1:
            return (None, history[0])
        return (history[-2], history[-1])

    def retained_frame(self, frame_id: int) -> FrameSnapshot | None:
        """The retained snapshot with ``frame_id``, if still in the ring."""
        for snapshot in self.frame_history:
            if snapshot.frame_id == frame_id:
                return snapshot
        return None

    def take_batch(self) -> list[SessionEvent]:
        """Drain the queue for one pipeline run (scheduler only)."""
        return self.queue.drain()

    # ------------------------------------------------------------------ #
    # Executor side
    # ------------------------------------------------------------------ #
    def execute_batch(self, batch: list[SessionEvent],
                      trace: "obs.Trace | None" = None) -> FrameSnapshot:
        """Apply one coalesced batch and produce the next snapshot.

        Runs on a worker thread.  The batch may be empty (the initial run
        at session open).  Raises whatever the pipeline raises; the caller
        records the error on the session.  A failing batch -- in the
        engine or in the frame build -- is reverted wholesale by
        :meth:`VisDBSession.batch` (every replaced value set back) and
        numbers no frame, so the live query state always equals the serial
        replay of the *recorded* batches -- a half-applied batch can neither
        linger nor hide -- and frame ids have no gaps.

        ``trace`` is the event's active trace, handed over explicitly
        because contextvars do not cross ``run_in_executor``; it becomes
        ambient here so the engine/backend spans parent correctly.
        """
        start = time.perf_counter()
        with obs.use_trace(trace), \
                obs.span("session.execute_batch",
                         session=self.id, events=len(batch)), \
                self.visdb.batch(batch) as feedback, \
                obs.span("frame.build") as frame_span:
            windows, fresh = self.window_cache.windows(feedback)
            frame_span.annotate(windows=len(windows), rendered_fresh=len(fresh))
        # The displayed set is provably unchanged when every window came
        # from the render cache (their fingerprints cover the display order
        # and all per-node distances at the displayed items) and the
        # displayed rows themselves are identical.  The previous frame's
        # pixel state is then exactly reusable by the client.
        display_unchanged = bool(
            not fresh
            and self.snapshot is not None
            and np.array_equal(self.snapshot.feedback.display_order,
                               feedback.display_order)
        )
        elapsed = time.perf_counter() - start
        self.frame_id += 1
        snapshot = FrameSnapshot(
            session_id=self.id,
            sequence=self.frame_id - 1,
            events_applied=len(batch),
            statistics=feedback.statistics,
            feedback=feedback,
            windows=windows,
            rendered_fresh=fresh,
            run_seconds=elapsed,
            display_unchanged=display_unchanged,
            frame_id=self.frame_id,
            base_frame_id=self.frame_id - 1 if self.frame_id > 1 else None,
            trace=trace,
        )
        if display_unchanged:
            self.metrics.inc("snapshots_reused")
        self.feedback = feedback
        retained = self.frame_history[:-1]
        if self.snapshot is not None:
            retained += (self.snapshot.superseded(),)
        self.frame_history = (retained + (snapshot,))[-self.frame_retention:]
        self.snapshot = snapshot
        self.error = None
        self.metrics.inc("runs")
        self.metrics.inc("events_executed", len(batch))
        self.metrics.run_latency.observe(elapsed)
        return snapshot

    # ------------------------------------------------------------------ #
    def metrics_snapshot(self) -> dict[str, object]:
        return self.metrics.snapshot(
            render_hits=self.window_cache.hits,
            render_misses=self.window_cache.misses,
            queue_depth=self.queue.depth,
        )


class SessionRegistry:
    """Id space and lifecycle (add / attach / expire) of service sessions."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._sessions: dict[str, ServiceSession] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    def add(self, prepared: PreparedQuery, *, max_queue_depth: int = 64,
            layout: MultiWindowLayout | None = None,
            frame_retention: int = 4,
            session_id: str | None = None) -> ServiceSession:
        """Register a session for an already-prepared query (loop-side, no I/O).

        ``prepared`` comes from the shared engine (prepared on a worker
        thread, per-session config overrides included).  The caller is
        responsible for admission control; the registry only enforces id
        uniqueness.
        """
        if session_id is None:
            session_id = f"s{next(self._ids)}"
        if session_id in self._sessions:
            raise ValueError(f"session id {session_id!r} already exists")
        session = ServiceSession(
            session_id, prepared, max_queue_depth=max_queue_depth,
            layout=layout, frame_retention=frame_retention,
            clock=self._clock,
        )
        self._sessions[session_id] = session
        return session

    def attach(self, session_id: str) -> ServiceSession:
        """Look a session up and refresh its idle timer."""
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        session.touch()
        return session

    def get(self, session_id: str) -> ServiceSession | None:
        return self._sessions.get(session_id)

    def close(self, session_id: str) -> ServiceSession:
        """Remove a session; its in-flight run (if any) finishes harmlessly."""
        session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        session.closed = True
        session.queue.clear()
        session.idle.set()
        return session

    def expire_idle(self, ttl_seconds: float) -> list[ServiceSession]:
        """Close every session idle (no events, nothing running) beyond the TTL."""
        now = self._clock()
        expired = [
            session for session in list(self._sessions.values())
            if not session.running and not session.queue
            and now - session.last_active > ttl_seconds
        ]
        for session in expired:
            self.close(session.id)
        return expired

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[ServiceSession]:
        return iter(self._sessions.values())

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions
