"""Low-overhead span tracing for the feedback pipeline.

One interactive event becomes one :class:`Trace`: a flat, append-only list
of :class:`Span` records (``perf_counter`` intervals plus attributes) that
together form a tree covering protocol receive, coalesce wait, scheduler
queue, pipeline execution down to per-node/per-shard work, backend
broadcast rounds, frame build, delta encode and the wire send.

The design constraints, in order:

* **Disabled tracing is free.**  Every instrumentation point goes through
  the module-level :func:`span`/:func:`annotate` helpers, which read one
  :class:`contextvars.ContextVar` and return a shared no-op object when no
  trace is active.  No allocation, no lock, no branch beyond the
  ``ContextVar.get``.
* **Context follows the event, not the thread.**  ``contextvars`` gives
  thread-local *and* asyncio-task-local parenting for free; the two places
  the event migrates explicitly -- the event loop handing a batch to an
  executor thread, and a worker process shipping its own timings back over
  its socket -- use :func:`use_trace` and :meth:`Trace.add_remote_spans`
  respectively.  Worker spans are timed on the worker's own clock and
  stitched under the coordinator span that awaited them.
* **Bounded retention.**  A :class:`Tracer` keeps a ring of recent traces
  and a second ring of *slow* traces (those over ``budget_ms``); a slow
  trace additionally gets an :func:`explain record <build_explain>` naming
  the certificate that failed, the shards recomputed and any backend
  fallback/restart -- the "why was that event slow" answer.

Export is Chrome trace-event JSON (:func:`chrome_trace_events`), which
Perfetto and ``chrome://tracing`` load directly.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "span",
    "annotate",
    "trace_active",
    "current_trace",
    "use_trace",
    "build_explain",
    "chrome_trace_events",
    "write_chrome_trace",
]

try:  # pragma: no cover - exercised only where contextvars is missing
    from contextvars import ContextVar
except ImportError:  # pragma: no cover
    ContextVar = None  # type: ignore[assignment]

#: The ambient ``(trace, parent_span_id)`` of the current thread/task.
_ACTIVE: "ContextVar[tuple[Trace, int] | None]" = ContextVar(
    "repro_obs_trace", default=None
)

_perf_counter = time.perf_counter


class Span:
    """One timed interval inside a trace (flat record, tree by parent id)."""

    __slots__ = ("id", "parent", "name", "t0", "t1", "tid", "attrs")

    def __init__(self, span_id: int, parent: int, name: str,
                 t0: float, tid: str, attrs: dict[str, Any] | None):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1: float | None = None
        self.tid = tid
        self.attrs = attrs

    @property
    def duration_ms(self) -> float:
        t1 = self.t1 if self.t1 is not None else self.t0
        return (t1 - self.t0) * 1e3


class Trace:
    """A tree of spans for one traced event, safe to append from any thread.

    Spans live in one append-only list; ids are list indices and parents
    are ids, so serialization never walks a pointer graph.  The list is
    guarded by a lock only for appends -- readers see a consistent prefix
    because CPython list appends publish atomically.
    """

    __slots__ = ("name", "trace_id", "attrs", "spans", "explain",
                 "started_wall", "_lock", "_finished")

    def __init__(self, name: str, trace_id: int,
                 t0: float | None = None, **attrs: Any):
        self.name = name
        self.trace_id = trace_id
        self.attrs: dict[str, Any] = attrs
        self.spans: list[Span] = []
        self.explain: dict[str, Any] | None = None
        self.started_wall = time.time()
        self._lock = threading.Lock()
        self._finished = False
        # Root span: id 0, carries the whole event's duration.  ``t0`` lets
        # the creator backdate the root to when the wire bytes arrived.
        self.begin(name, parent=-1, t0=t0)

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    def begin(self, name: str, parent: int = 0,
              t0: float | None = None, **attrs: Any) -> int:
        """Open a span and return its id (close it with :meth:`end`)."""
        span_ = Span(
            0, parent, name,
            _perf_counter() if t0 is None else t0,
            str(threading.get_ident()), attrs or None,
        )
        with self._lock:
            span_.id = len(self.spans)
            self.spans.append(span_)
        return span_.id

    def end(self, span_id: int, t1: float | None = None, **attrs: Any) -> None:
        span_ = self.spans[span_id]
        span_.t1 = _perf_counter() if t1 is None else t1
        if attrs:
            self.annotate(span_id, **attrs)

    def annotate(self, span_id: int, **attrs: Any) -> None:
        span_ = self.spans[span_id]
        with self._lock:
            if span_.attrs is None:
                span_.attrs = attrs
            else:
                span_.attrs.update(attrs)

    @contextmanager
    def span(self, name: str, parent: int = 0, **attrs: Any):
        """Span context manager with explicit parenting (no ambient context)."""
        span_id = self.begin(name, parent=parent, **attrs)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def add_remote_spans(self, parent: int,
                         remote: Iterable[dict[str, Any]],
                         tid: str = "worker") -> None:
        """Stitch spans timed on a *different clock* under ``parent``.

        Worker processes report ``{"name", "start", "dur", "attrs"}`` with
        ``start`` relative to their own op start; the only clock the
        coordinator can anchor them to is the span that awaited the reply,
        so remote spans are placed at ``parent.t0 + start``.  They keep a
        ``clock: worker`` attribute because the two clocks are not the
        same instrument -- offsets within a reply are exact, the anchor is
        the coordinator's best estimate.
        """
        anchor = self.spans[parent].t0
        for record in remote:
            attrs = dict(record.get("attrs") or ())
            attrs.setdefault("clock", "worker")
            t0 = anchor + float(record.get("start", 0.0))
            span_ = Span(0, parent, str(record["name"]), t0, tid, attrs)
            span_.t1 = t0 + float(record.get("dur", 0.0))
            with self._lock:
                span_.id = len(self.spans)
                self.spans.append(span_)

    def finish(self, **attrs: Any) -> "Trace":
        """Close the root span; later spans (encode/send) may still attach."""
        if not self._finished:
            self._finished = True
            self.end(0, **attrs)
        return self

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #
    @property
    def duration_ms(self) -> float:
        return self.spans[0].duration_ms

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id and s.id != span_id]

    def span_tree(self) -> dict[str, Any]:
        """The spans as a nested ``{name, duration_ms, attrs, children}`` tree."""
        nodes = {
            s.id: {
                "name": s.name,
                "start_ms": round((s.t0 - self.spans[0].t0) * 1e3, 4),
                "duration_ms": round(s.duration_ms, 4),
                "attrs": dict(s.attrs) if s.attrs else {},
                "children": [],
            }
            for s in self.spans
        }
        for s in self.spans:
            if s.id != 0 and s.parent in nodes:
                nodes[s.parent]["children"].append(nodes[s.id])
        return nodes[0]

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (what the protocol ``trace`` op returns)."""
        base = self.spans[0].t0
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_unix": self.started_wall,
            "duration_ms": round(self.duration_ms, 4),
            "attrs": dict(self.attrs),
            "explain": self.explain,
            "spans": [
                {
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_ms": round((s.t0 - base) * 1e3, 4),
                    "duration_ms": round(s.duration_ms, 4),
                    "tid": s.tid,
                    "attrs": dict(s.attrs) if s.attrs else {},
                }
                for s in self.spans
            ],
        }


# ------------------------------------------------------------------ #
# Ambient (contextvar) API -- what the engine/backend call sites use
# ------------------------------------------------------------------ #
class _NullSpan:
    """Shared do-nothing span: the entire cost of disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _AmbientSpan:
    """Context manager tying a new span into the ambient parent chain."""

    __slots__ = ("trace", "span_id", "_name", "_attrs", "_token")

    def __init__(self, trace: Trace, parent: int, name: str,
                 attrs: dict[str, Any]):
        self.trace = trace
        self.span_id = trace.begin(name, parent=parent, **attrs)
        self._token = None

    def __enter__(self) -> "_AmbientSpan":
        self._token = _ACTIVE.set((self.trace, self.span_id))
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        self.trace.end(self.span_id)
        return False

    def annotate(self, **attrs: Any) -> None:
        self.trace.annotate(self.span_id, **attrs)


def span(name: str, **attrs: Any):
    """Open a child span of the ambient parent; no-op without a trace.

    The span is opened at call time (so ``with span(...)`` measures from
    the call) and becomes the ambient parent for the ``with`` body on this
    thread/task.
    """
    active = _ACTIVE.get()
    if active is None:
        return _NULL_SPAN
    return _AmbientSpan(active[0], active[1], name, attrs)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the ambient span; no-op without a trace."""
    active = _ACTIVE.get()
    if active is not None:
        active[0].annotate(active[1], **attrs)


def trace_active() -> bool:
    """Cheap guard for call sites that would otherwise build attr dicts."""
    return _ACTIVE.get() is not None


def current_trace() -> Trace | None:
    active = _ACTIVE.get()
    return active[0] if active is not None else None


@contextmanager
def use_trace(trace: Trace | None, parent: int = 0):
    """Make ``trace`` ambient on this thread/task (e.g. in an executor).

    ``contextvars`` do not cross ``run_in_executor``; the service hands
    the trace object to the worker thread explicitly and re-activates it
    here.  ``trace=None`` is a no-op so call sites need no branching.
    """
    if trace is None:
        yield None
        return
    token = _ACTIVE.set((trace, parent))
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


# ------------------------------------------------------------------ #
# Tracer: sampling, retention, slow-event forensics
# ------------------------------------------------------------------ #
class Tracer:
    """Creates traces, samples them, and retains recent + slow rings."""

    def __init__(self, enabled: bool = False, sample_rate: float = 1.0,
                 budget_ms: float | None = None, ring_size: int = 32,
                 slow_ring_size: int = 16, seed: int | None = None):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        if ring_size < 1 or slow_ring_size < 1:
            raise ValueError("ring sizes must be at least 1")
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self.budget_ms = budget_ms
        self._recent: "deque[Trace]" = deque(maxlen=ring_size)
        self._slow: "deque[Trace]" = deque(maxlen=slow_ring_size)
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._rng = random.Random(seed)

    # -------------------------------------------------------------- #
    def start(self, name: str, t0: float | None = None,
              **attrs: Any) -> Trace | None:
        """A new trace, or ``None`` when disabled or sampled out."""
        if not self.enabled:
            return None
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        return Trace(name, next(self._seq), t0=t0, **attrs)

    def finish(self, trace: Trace | None, **attrs: Any) -> dict[str, Any] | None:
        """Close a trace, retain it, and return its explain record if slow."""
        if trace is None:
            return None
        trace.finish(**attrs)
        with self._lock:
            self._recent.append(trace)
        if self.budget_ms is not None and trace.duration_ms > self.budget_ms:
            trace.explain = build_explain(trace, budget_ms=self.budget_ms)
            with self._lock:
                self._slow.append(trace)
            return trace.explain
        return None

    @contextmanager
    def trace(self, name: str, **attrs: Any):
        """Start + activate + finish in one block (benchmarks, tools)."""
        trace = self.start(name, **attrs)
        if trace is None:
            yield None
            return
        with use_trace(trace):
            yield trace
        self.finish(trace)

    # -------------------------------------------------------------- #
    def recent_traces(self) -> list[Trace]:
        with self._lock:
            return list(self._recent)

    def slow_traces(self) -> list[Trace]:
        with self._lock:
            return list(self._slow)

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._slow.clear()


# ------------------------------------------------------------------ #
# Forensics + export
# ------------------------------------------------------------------ #
def build_explain(trace: Trace, budget_ms: float | None = None) -> dict[str, Any]:
    """Why was this event slow?  Aggregated from span attributes.

    Collects every certificate verdict (``certificate``/``certified``
    attrs written by the incremental evaluator), the dirty/recomputed
    shard totals, backend fallbacks and worker restarts, plus the
    slowest spans -- the record a slow-trace ring entry carries.
    """
    failed: list[dict[str, Any]] = []
    passed = 0
    recomputed = 0
    reused = 0
    dirty = None
    fallbacks = 0
    restarts = 0
    for s in trace.spans:
        attrs = s.attrs
        if not attrs:
            continue
        if "certificate" in attrs:
            if attrs.get("certified"):
                passed += 1
            else:
                failed.append({
                    "certificate": attrs["certificate"],
                    "node": attrs.get("node"),
                    "span": s.name,
                })
        recomputed += int(attrs.get("shards_recomputed", 0) or 0)
        reused += int(attrs.get("shards_reused", 0) or 0)
        if "root_dirty_shards" in attrs:
            dirty = attrs["root_dirty_shards"]
        fallbacks += int(attrs.get("backend_fallbacks", 0) or 0)
        restarts += int(attrs.get("worker_restarts", 0) or 0)
    timed = [s for s in trace.spans if s.id != 0 and s.t1 is not None]
    slowest = sorted(timed, key=lambda s: -s.duration_ms)[:5]
    return {
        "duration_ms": round(trace.duration_ms, 4),
        "budget_ms": budget_ms,
        "certificates_failed": failed,
        "certificates_passed": passed,
        "shards_recomputed": recomputed,
        "shards_reused": reused,
        "root_dirty_shards": dirty,
        "backend_fallbacks": fallbacks,
        "worker_restarts": restarts,
        "slowest_spans": [
            {"name": s.name, "duration_ms": round(s.duration_ms, 4)}
            for s in slowest
        ],
    }


def chrome_trace_events(traces: Iterable[Trace | dict[str, Any]]) -> dict[str, Any]:
    """Chrome trace-event JSON for a set of traces (Perfetto-loadable).

    Each trace becomes one ``pid`` row group; spans are complete events
    (``ph: "X"``) on their recording thread's ``tid``.  Accepts live
    :class:`Trace` objects or the dictionaries the ``trace`` protocol op
    returns, so :mod:`examples.trace_dump` can convert either.
    """
    events: list[dict[str, Any]] = []
    for trace in traces:
        record = trace.to_dict() if isinstance(trace, Trace) else trace
        pid = int(record.get("trace_id", 0))
        events.append({
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": f"trace {pid}: {record.get('name', 'event')}"},
        })
        for s in record.get("spans", ()):
            events.append({
                "ph": "X",
                "pid": pid,
                "tid": str(s.get("tid", "0")),
                "name": s["name"],
                "cat": "repro",
                "ts": round(float(s["start_ms"]) * 1e3, 1),
                "dur": round(float(s["duration_ms"]) * 1e3, 1),
                "args": s.get("attrs") or {},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str,
                       traces: Iterable[Trace | dict[str, Any]]) -> str:
    """Write ``traces`` as a Perfetto-loadable JSON file; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace_events(traces), handle)
    return path
