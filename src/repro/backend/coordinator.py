"""The one coordinator behind every out-of-process backend.

``process`` (worker servers it spawns on socketpairs) and ``remote`` (a
TCP fleet someone else runs) offload the same one op -- a whole-pipeline
session -- over the same transport, and differ only in where their
endpoints come from and how a failed one comes back.  This module is
the half that understands the op; it assumes nothing about sockets:

* :class:`Coordinator` drives the pipeline session: publish, pin, attach,
  shard-to-lane assignment, the output-buffer layout, the start round and
  the ``resolve_level`` / ``round_message`` / ``gather_round`` loop
  (:mod:`repro.backend.pipeline`), stream-plane fetches, summary fill,
  abort, adopting or releasing the output buffer, the
  single retry on ``unknown-table``, and every counter
  :meth:`~Coordinator.stats` reports.
* :class:`Transport` is everything it needs from the other half.  A
  *lane* is one worker the transport can address -- one endpoint through
  the connection pinned for the op.  Transports own connections, health
  and environment; they never look inside an op.

Two exception kinds cross the boundary, and they are the whole fault
taxonomy:

* :class:`WorkerOpError` -- the op was rejected (error reply, or it could
  not be serialised) and every lane is still request/reply aligned.  The
  lanes are kept; the op falls back in-process.
* :class:`WorkerPoolError` -- the transport itself failed (dead or reset
  peer, timeout, version skew).  Before raising, the transport has
  already made sure the lanes are never reused: the endpoint is marked
  down and the session's connections closed.  The op falls back
  in-process.

Either way the event completes bit-identically on the in-process path.
"""

from __future__ import annotations

import pickle
import threading
import weakref
from contextlib import AbstractContextManager
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.backend.base import ExecBackend
from repro.backend.pipeline import (
    gather_round,
    next_pipeline_token,
    node_views,
    pipeline_layout,
    resolve_level,
    round_message,
)
from repro.backend.shm import PublishedTable, ShmColumnStore
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.shard import ShardedTable

__all__ = [
    "Coordinator",
    "OutputBuffer",
    "Transport",
    "WorkerOpError",
    "WorkerPoolError",
    "raise_rejected",
    "serialise",
    "traced_round",
]


class WorkerPoolError(RuntimeError):
    """Transport fault: a worker died, a link broke, or a round timed out.

    The lanes can no longer be trusted; the transport that raises this
    has already marked the endpoint down.  ``fault`` is the
    ``backend_fault`` the fallback is traced under: ``transport``, or
    ``transport:timeout`` / ``transport:closed`` when ``code`` says which.
    """

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.fault = "transport" if code is None else f"transport:{code}"


class WorkerOpError(RuntimeError):
    """A healthy worker rejected an op, or the op could not be serialised.

    Every lane is still aligned and stays in service.  ``code`` is the
    worker's machine-readable reason when it gave one
    (``"unknown-table"``: re-attach and retry once); ``fault`` is the
    ``backend_fault`` the fallback it causes is traced under.
    """

    def __init__(self, message: str, code: str | None = None,
                 fault: str = "op-rejected"):
        super().__init__(message)
        self.code = code
        self.fault = fault if code is None else f"{fault}:{code}"


def serialise(messages: list[dict[str, Any] | None]) -> list[bytes | None]:
    """Pickle a round's messages *before* anything is sent.

    A message that cannot cross the boundary (an unpicklable predicate)
    is the op's fault, and discovering it up front keeps every lane
    aligned: :class:`WorkerOpError`, not a transport fault.
    """
    try:
        return [None if msg is None
                else pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
                for msg in messages]
    except Exception as exc:
        raise WorkerOpError(f"could not serialise op: {exc!r}",
                            fault="unserialisable") from exc


def raise_rejected(replies: list[dict[str, Any] | None]) -> None:
    """Raise the first error reply of a fully drained round."""
    for reply in replies:
        if reply is not None and not reply.get("ok"):
            raise WorkerOpError(str(reply.get("error", "worker op failed")),
                                code=reply.get("code"))


class OutputBuffer:
    """Where one op's output columns are assembled on the coordinator.

    A shared-memory block when at least one lane can map it (workers then
    write their spans in place: zero column bytes on the transport),
    plain local bytes otherwise.  The block comes from ``store``'s free
    slot when one of the right size is there
    (:meth:`~repro.backend.shm.ShmColumnStore.take_output_block`).
    :attr:`buf` is one root ``uint8`` array over the whole buffer; build
    every column view on it.  ``names[lane]`` is what goes into that
    lane's ``out`` field -- the block name, or ``None`` for a lane that
    must keep its columns for ``pipeline_fetch``.

    The buffer ends one of two ways.  A failed op calls :meth:`close`:
    the block is unlinked and unmapped, never reused -- a lane that
    faulted may still be writing to it.  A successful one calls
    :meth:`adopt`: the memory stays with the column views, which the
    caches keep, and the block returns to the store's free slot, still
    mapped and linked, when the last of them dies.
    """

    def __init__(self, nbytes: int, lanes_shm: list[bool],
                 store: ShmColumnStore):
        size = max(1, nbytes)
        self._store = store
        self._shm = store.take_output_block(size) if any(lanes_shm) else None
        memory = self._shm.buf if self._shm is not None else bytearray(size)
        self.buf: np.ndarray | None = np.ndarray(size, np.uint8, buffer=memory)
        name = self._shm.name if self._shm is not None else None
        self.names = [name if shm else None for shm in lanes_shm]

    def close(self) -> None:
        """Release the buffer; a shared block is unlinked and closed."""
        self.buf = None
        shm, self._shm = self._shm, None
        if shm is not None:
            self._store.forget_output_block(shm)

    def adopt(self) -> None:
        """Hand the buffer's memory to the views built on :attr:`buf`.

        Nothing is copied.  Every view of :attr:`buf` keeps that root
        array alive, and the root keeps the block's ``mmap`` (or the local
        ``bytearray``), so the memory lives exactly as long as the last
        view of it.  Then a finalizer on the root gives a shared block
        back to the store.  :meth:`close` is a no-op afterwards.
        """
        if self._shm is not None:
            finalizer = weakref.finalize(
                self.buf, self._store.give_back_output_block, self._shm)
            # At exit the store's close() unlinks every block; a give-back
            # then could only park a block some view still reads.
            finalizer.atexit = False
        self.buf = self._shm = None


class Transport(Protocol):
    """What the coordinator needs from the fleet of worker endpoints.

    One op is: ``with session(width) as lanes`` -> ``attach`` ->
    ``output_buffer`` -> one or more ``round``s -> (``abort`` on failure).
    A round's ``messages[i]`` goes to lane ``i``; every message is sent
    before any reply is read so lanes compute in parallel, and a ``None``
    message skips its lane (its reply is ``None``).  ``round`` raises
    :class:`WorkerOpError` only after *every* reply is drained, and
    :class:`WorkerPoolError` only after making the lanes unusable.
    """

    #: One label per lane of the open session, for trace track names.
    lane_names: list[str]

    def session(self, width: int) -> AbstractContextManager[int]:
        """Reserve up to ``width`` lanes for one op; yields the lane count.

        Nothing else may interleave with the op's request/reply pairs
        until the context exits (the fleet pins one connection per
        endpoint).
        """

    def attach(self, published: PublishedTable, timeout: float,
               refresh: bool = False) -> int:
        """Make ``published`` readable on every lane; returns bytes spent.

        Idempotent and cached per lane; ``refresh`` re-negotiates even
        when the cache says attached (a worker evicted the table).
        """

    def output_buffer(self, nbytes: int) -> OutputBuffer:
        """The op's output buffer over the backend's store, shared with
        whichever lanes can map it."""

    def round(self, messages: list[dict[str, Any] | None], timeout: float
              ) -> tuple[list[dict[str, Any] | None], int, int]:
        """One request/reply per lane: ``(replies, bytes_out, bytes_in)``."""

    def abort(self, token: str, timeout: float) -> None:
        """Best effort: drop the lanes' state of pipeline session ``token``.

        A no-op on lanes the transport already gave up on.  Never raises.
        """


def traced_round(transport: Transport, messages: list[dict[str, Any] | None],
                 timeout: float, name: str, **attrs: Any
                 ) -> tuple[list[dict[str, Any] | None], int, int]:
    """``transport.round`` wrapped in a span when a trace is ambient.

    Tags each message with ``trace=True`` so workers time the op on their
    own clock and ship span records back in the reply; those records are
    stitched under this round's span, one track per lane, so the trace
    shows coordinator wait and worker compute side by side.  Without an
    ambient trace this is a plain round -- no tag, no span, byte-identical
    traffic.
    """
    if not obs.trace_active():
        return transport.round(messages, timeout)
    for msg in messages:
        if msg is not None:
            msg["trace"] = True
    with obs.span(name, workers=len(messages), **attrs) as round_span:
        replies, bytes_out, bytes_in = transport.round(messages, timeout)
        round_span.annotate(bytes_out=bytes_out, bytes_in=bytes_in)
        for lane, reply in enumerate(replies):
            if reply is not None and reply.get("spans"):
                round_span.trace.add_remote_spans(
                    round_span.span_id, reply["spans"],
                    tid=f"worker-{transport.lane_names[lane]}")
    return replies, bytes_out, bytes_in


def _scatter(dest: np.ndarray, replies: list[dict[str, Any] | None]) -> int:
    """Copy inline ``(start, stop, bytes)`` reply spans into ``dest``."""
    nbytes = 0
    for reply in replies:
        for start, stop, payload in (reply or {}).get("data", ()):
            dest[start:stop] = np.frombuffer(payload, dtype=dest.dtype)
            nbytes += len(payload)
    return nbytes


class Coordinator(ExecBackend):
    """Base of the ``process`` and ``remote`` backends: the op, once.

    Subclasses supply a column ``store`` and the three transport hooks at
    the bottom; everything an :class:`ExecBackend` promises is here.
    """

    #: Per-round reply deadline, seconds.  Generous: a timeout is treated
    #: as a transport fault, so it must only fire when something is
    #: genuinely wedged, not on a loaded CI machine.
    op_timeout = 120.0

    #: Where this backend publishes table columns (set by subclasses).
    store: ShmColumnStore

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._counters = dict.fromkeys(
            ("pipeline_ops", "pipeline_fallbacks", "worker_restarts",
             "traffic_bytes", "reply_bytes", "column_bytes"), 0)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _offloadable(self, sharded: "ShardedTable") -> bool:
        return (not self._closed and sharded.shard_count > 1
                and len(sharded.table) > 0 and self._configured())

    def prepare(self, sharded: "ShardedTable") -> None:
        """Publish the table's columns ahead of the first op (idempotent)."""
        if not self._offloadable(sharded):
            return
        try:
            self.store.publish(sharded.table)
        except Exception:
            # Not fatal: ops retry the publish and fall back in-process
            # if it keeps failing.
            pass

    def close(self) -> None:
        self._closed = True

    # ------------------------------------------------------------------ #
    # The op
    # ------------------------------------------------------------------ #
    def shard_pipeline(self, sharded: "ShardedTable",
                       spec: dict) -> dict | None:
        """Run a whole plan's per-shard stages on the lanes (see base class).

        Publish, pin, open a session, attach, run the rounds (one per plan
        level, see :mod:`repro.backend.pipeline`); every round's reply
        carries only summaries (counting rows), totalled into
        ``reply_bytes``.  Any fault aborts the session (workers drop
        their state) and declines the op with a ``backend_fault`` on the
        ambient span -- the evaluator reruns in-process, bit-identically.
        An ``unknown-table`` rejection -- a worker dropped the publication
        behind our back -- is retried exactly once with a forced re-attach.
        """
        if not self._offloadable(sharded):
            return super().shard_pipeline(sharded, spec)
        for refresh in (False, True):
            published: PublishedTable | None = None
            tally = dict.fromkeys(("traffic_bytes", "reply_bytes",
                                   "column_bytes"), 0)
            try:
                published = self.store.publish(sharded.table)
                # Pinned for the whole op: a concurrent publish eviction
                # would otherwise unlink blocks the op's rounds reference
                # mid-flight.
                self.store.pin(published)
                transport = self._open_transport()
                with transport.session(sharded.shard_count) as lanes:
                    tally["traffic_bytes"] += transport.attach(
                        published, self.op_timeout, refresh)
                    result = self._pipeline_session(
                        sharded, spec, transport, published, lanes, tally)
                self._count(pipeline_ops=1, **tally)
                return result
            except WorkerOpError as exc:
                if exc.code != "unknown-table" or refresh:
                    return self._fallback(exc.fault)
            except WorkerPoolError as exc:
                return self._fallback(exc.fault, restart=True)
            except Exception:
                return self._fallback("error")
            finally:
                if published is not None:
                    self.store.unpin(published)
        return None  # pragma: no cover - the second pass always returns

    def _pipeline_session(self, sharded: "ShardedTable", spec: dict,
                          transport: Transport, published: PublishedTable,
                          lanes: int, tally: dict[str, int]) -> dict:
        rows = len(sharded.table)
        spec = dict(spec, token=next_pipeline_token())
        nodes = {node["id"]: node for node in spec["nodes"]}
        levels = spec["levels"]
        shard_count = sharded.shard_count
        shards = [(i, start, stop)
                  for i, (start, stop) in enumerate(sharded.bounds)]
        total_bytes, offsets = pipeline_layout(spec["nodes"], rows)
        out = transport.output_buffer(total_bytes)
        views = {node_id: node_views(out.buf, offs, rows)
                 for node_id, offs in offsets.items()}
        start_sent = False
        try:
            messages = [{
                "op": "pipeline_start",
                "table_id": published.key,
                "spec": spec,
                "out": out.names[lane],
                "shards": shards[lane::lanes],
            } for lane in range(lanes)]
            # From here on some lane may hold session state (and the
            # output block mapped) even if the round itself is rejected:
            # one lane's error reply says nothing about its peers.
            start_sent = True
            replies = self._round(transport, messages, tally,
                                  "pipeline.round", reply=True,
                                  op="pipeline_start")
            #: Lanes whose session columns live worker-side and must be
            #: fetched into our buffer (the stream plane).
            stream = [reply.get("mode") != "shm" for reply in replies]
            fetched: set[tuple[int, str]] = set()

            def fetch(node_id: int, field: str) -> None:
                if (node_id, field) in fetched or not any(stream):
                    return
                msg = {"op": "pipeline_fetch", "token": spec["token"],
                       "node": node_id, "field": field}
                data = self._round(
                    transport, [msg if s else None for s in stream], tally,
                    "pipeline.fetch", node=node_id, field=field)
                tally["column_bytes"] += _scatter(views[node_id][field], data)
                fetched.add((node_id, field))

            def read_raw(node_id: int) -> np.ndarray:
                # The bounds selection runs straight over the buffer:
                # zero transport bytes when every lane mapped the block.
                fetch(node_id, "raw")
                return views[node_id]["raw"]

            summaries: dict[int, dict] = {}
            resolved: dict[int, tuple | None] = {}
            for level_no in range(1, len(levels) + 1):
                resolved_msg = resolve_level(
                    levels[level_no - 1], nodes, read_raw)
                resolved.update(resolved_msg)
                msg = round_message(spec, levels, level_no, resolved_msg)
                replies = self._round(transport, [msg] * lanes, tally,
                                      "pipeline.round", reply=True,
                                      op=msg["op"])
                gather_round(replies, summaries)
            # The finish round closed every shared-memory lane's session.
            # Stream lanes still hold theirs: pull every remaining column
            # span, then release them.
            if any(stream):
                for node_id, fields in views.items():
                    for field in fields:
                        fetch(node_id, field)
                release = {"op": "pipeline_release", "token": spec["token"]}
                self._round(transport,
                            [release if s else None for s in stream], tally,
                            "pipeline.fetch", op="pipeline_release")
            start_sent = False
            result_nodes: dict[int, dict] = {}
            for node_id in nodes:
                entry = result_nodes[node_id] = {
                    "resolved": resolved[node_id],
                    "summaries": np.asarray(
                        [summaries[node_id][s] for s in range(shard_count)],
                        dtype=float),
                }
                # The views themselves: the buffer is adopted below, not
                # copied out.
                entry.update(views[node_id])
            out.adopt()
            return {"nodes": result_nodes}
        except BaseException:
            # Clear the lanes' session state while we still own them, so
            # no other op can interleave before the abort.
            if start_sent:
                transport.abort(spec["token"], self.op_timeout)
            raise
        finally:
            out.close()

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _round(self, transport: Transport,
               messages: list[dict[str, Any] | None], tally: dict[str, int],
               name: str, reply: bool = False,
               **attrs: Any) -> list[dict[str, Any] | None]:
        replies, bytes_out, bytes_in = traced_round(
            transport, messages, self.op_timeout, name, **attrs)
        tally["traffic_bytes"] += bytes_out + bytes_in
        if reply:
            tally["reply_bytes"] += bytes_in
        return replies

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._counters[key] += delta

    def _fallback(self, fault: str, restart: bool = False) -> None:
        self._count(pipeline_fallbacks=1, worker_restarts=int(restart))
        # Lands on the ambient ``pipeline.offload`` span so the slow-event
        # explain record can report that (and why) the answer was served
        # by the in-process fallback rather than the workers.
        obs.annotate(backend_fallbacks=1, backend_fault=fault,
                     worker_restarts=int(restart))

    def stats(self) -> dict[str, int]:
        with self._lock:
            counters = dict(self._counters)
        # One op: the older op-agnostic names report the same counters.
        counters.update(offloaded_ops=counters["pipeline_ops"],
                        fallbacks=counters["pipeline_fallbacks"])
        counters.update(self._gauges())
        counters.update(self.store.stats())
        return counters

    # ------------------------------------------------------------------ #
    # Transport hooks
    # ------------------------------------------------------------------ #
    def _configured(self) -> bool:
        """False when there is nowhere to offload to: decline silently."""
        return True

    def _open_transport(self) -> Transport:
        """The transport for one op (raise to decline with a fallback)."""
        raise NotImplementedError

    def _gauges(self) -> dict[str, int]:
        """``worker_count`` / ``workers_alive`` (+ transport counters)."""
        raise NotImplementedError
