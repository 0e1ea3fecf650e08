"""The worker side of every out-of-process backend: one op table.

A *lane* -- one connection of a worker server, whether a ``process``
backend spawned it on a socketpair or a ``remote`` fleet runs it on a
port -- owns a :class:`WorkerOps` and feeds it decoded messages;
:meth:`WorkerOps.dispatch` is the only place an op code is interpreted.
The one loop around it, in :mod:`repro.backend.remote.server`, only
moves bytes.

Columns never travel with an op: ``attach`` carries a shared-memory
manifest (or announces a one-time upload), after which the lane holds a
zero-copy table in its store of attached tables; the ``pipeline_*`` ops
(:mod:`repro.backend.pipeline`) run a whole plan's per-shard stages as a
short session of rounds, writing every column into one output buffer the
coordinator allocated and replying only counting rows.

A failing op produces an error reply and leaves the lane alive and
request/reply aligned (an open pipeline session is torn down, so the
next op starts clean) -- only a dead link or an explicit ``exit`` ends a
loop, so one poisonous message cannot wedge a lane.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory
from typing import Any, Callable

from repro.backend.pipeline import WorkerPipeline, pipeline_layout
from repro.backend.shm import (
    attach_block,
    build_table_from_manifest,
    table_from_buffers,
)
from repro.storage.lru import LRUStore

__all__ = ["WorkerOps"]


class _TableEntry:
    """One attached publication: the table plus whatever keeps it alive."""

    def __init__(self, mode: str, table,
                 blocks: list[shared_memory.SharedMemory]):
        self.mode = mode
        self.table = table
        self.blocks = blocks

    def close(self) -> None:
        for shm in self.blocks:
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self.blocks = []


class _Session:
    """One lane's live pipeline session plus what it keeps pinned."""

    def __init__(self, pipeline: WorkerPipeline, entry: _TableEntry,
                 block: shared_memory.SharedMemory | None):
        self.pipeline = pipeline
        self.entry = entry
        #: The coordinator's output block, or None when the columns live
        #: in lane-local bytes and are served by ``pipeline_fetch``.
        self.block = block


class _UnknownTable(LookupError):
    """The op named a publication this lane's store does not hold."""


#: The kernel rounds: ops whose time ships back as a ``worker.<op>`` span.
_TIMED_OPS = ("pipeline_start", "pipeline_level", "pipeline_finish")


def _op_spans(msg: dict[str, Any], t0: float, op: str) -> dict[str, Any]:
    """Worker-side span records for one op, when the coordinator asked.

    Timed on this worker's own ``perf_counter`` -- the coordinator cannot
    share a clock with us, so spans ship as ``(start, dur)`` relative to
    the op start and get stitched under the round span that awaited this
    reply (:meth:`repro.obs.trace.Trace.add_remote_spans`).  Without
    ``msg["trace"]`` the reply stays exactly as before: zero extra bytes.
    """
    if not msg.get("trace"):
        return {}
    return {
        "pid": os.getpid(),
        "spans": [{
            "name": f"worker.{op}",
            "start": 0.0,
            "dur": time.perf_counter() - t0,
            "attrs": {"pid": os.getpid()},
        }],
    }


class WorkerOps:
    """One lane's op table: every op a coordinator may send, served once.

    ``store`` holds the process's attached tables, shared by every lane
    it serves: an :class:`~repro.storage.lru.LRUStore` of
    :class:`_TableEntry` values with :meth:`_TableEntry.close` as its
    ``on_evict``.  Ops pin the entry they operate on, so a session on one
    connection never has its column mappings closed by an attach on
    another.  ``allow_shm=False`` makes the lane refuse the shared-memory
    plane (a cross-host server); ``attach`` opens a coordinator block by
    name.  Per-lane state is the open pipeline session and the column
    uploads of an in-progress stream-plane attach (:attr:`uploads`,
    filled by the socket loop -- raw frames are the one thing that cannot
    ride a pickled op).
    """

    def __init__(self, store: LRUStore[_TableEntry], *, allow_shm: bool = True,
                 attach: Callable[[str], shared_memory.SharedMemory]
                 = attach_block):
        self.store = store
        self.allow_shm = allow_shm
        self.attach_block = attach
        self.session: _Session | None = None
        #: table_id -> column name -> uploaded bytes.
        self.uploads: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------------ #
    def dispatch(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Serve one op; always returns a reply, never raises."""
        op = msg.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        t0 = time.perf_counter()
        try:
            reply = {"ok": True, **handler(self, msg)}
        except _UnknownTable as exc:
            return {"ok": False, "code": "unknown-table",
                    "error": f"table {exc.args[0]!r} not attached"}
        except Exception as exc:
            # A half-done pipeline session has no defined state to resume
            # from; drop it so the error reply leaves the lane clean for
            # the next (unrelated) op.
            if op.startswith("pipeline"):
                self.close()
            return {"ok": False, "error": f"{op}: {exc!r}"}
        if op in _TIMED_OPS:
            reply.update(_op_spans(msg, t0, op))
        return reply

    def close(self) -> None:
        """Drop the open pipeline session, if any (idempotent)."""
        session, self.session = self.session, None
        if session is not None:
            session.pipeline.close()
            if session.block is not None:
                try:
                    session.block.close()
                except Exception:  # pragma: no cover - teardown best effort
                    pass
            self.store.release(session.entry)

    # ------------------------------------------------------------------ #
    def _pinned(self, table_id: str) -> _TableEntry:
        entry = self.store.get(table_id, pin=True)
        if entry is None:
            raise _UnknownTable(table_id)
        return entry

    def _open_session(self, msg: dict[str, Any]) -> WorkerPipeline:
        if self.session is None or self.session.pipeline.token != msg["token"]:
            raise RuntimeError("no matching session")
        return self.session.pipeline

    def _ping(self, msg: dict[str, Any]) -> dict[str, Any]:
        session = self.session
        return {"pid": os.getpid(),
                "session": session.pipeline.token if session else None}

    def _attach(self, msg: dict[str, Any]) -> dict[str, Any]:
        manifest = msg["manifest"]
        key = manifest["table_id"]
        entry = self.store.get(key)
        if entry is not None:
            # "have" tells a stream-plane client to skip the column
            # upload a fresh negotiation would otherwise start.
            return {"mode": entry.mode, "have": True}
        if self.allow_shm and msg.get("mode_hint") != "stream":
            try:
                table, blocks = build_table_from_manifest(
                    manifest, self.attach_block)
            except Exception:
                pass
            else:
                self._keep(key, _TableEntry("shm", table, blocks))
                return {"mode": "shm"}
        # Stream plane: ask the client to ship the columns once.
        return {"mode": "stream"}

    def _attach_done(self, msg: dict[str, Any]) -> dict[str, Any]:
        manifest = msg["manifest"]
        key = manifest["table_id"]
        received = self.uploads.pop(key, {})
        table = table_from_buffers(manifest,
                                   lambda spec: received[spec["name"]])
        self._keep(key, _TableEntry("stream", table, []))
        return {"mode": "stream"}

    def _keep(self, key: str, entry: _TableEntry) -> None:
        """Store ``entry``; another lane's attach of ``key`` may have won."""
        if self.store.put(key, entry) is not entry:
            entry.close()

    def _drop(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.store.pop(msg["table_id"])
        return {}

    def _pipeline_start(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.close()
        entry = self._pinned(msg["table_id"])
        block = None
        try:
            if self.allow_shm and msg.get("out") is not None:
                try:
                    block = self.attach_block(msg["out"])
                except Exception:
                    block = None
            if block is not None:
                buf = block.buf
            else:
                spec = msg["spec"]
                buf = bytearray(pipeline_layout(spec["nodes"],
                                                spec["rows"])[0])
            pipeline = WorkerPipeline(entry.table, msg, buf)
        except BaseException:
            self.store.release(entry)
            if block is not None:
                block.close()
            raise
        self.session = _Session(pipeline, entry, block)
        pipeline.start()
        return {"mode": "shm" if block is not None else "local"}

    def _pipeline_level(self, msg: dict[str, Any]) -> dict[str, Any]:
        return self._open_session(msg).level(msg)

    def _pipeline_finish(self, msg: dict[str, Any]) -> dict[str, Any]:
        payload = self._open_session(msg).finish(msg)
        # With the columns already in the coordinator's block the session
        # is complete.  Lane-local columns still have to be fetched, so
        # that session stays open until pipeline_release.
        if self.session.block is not None:
            self.close()
        return payload

    def _pipeline_fetch(self, msg: dict[str, Any]) -> dict[str, Any]:
        """One (node, field) column over this session's shard spans.

        Only sent to lanes that replied ``mode: "local"``; one node-field
        per request keeps every reply far under the socket frame limit.
        """
        pipeline = self._open_session(msg)
        column = pipeline.views[msg["node"]][msg["field"]]
        return {"data": [(start, stop, column[start:stop].tobytes())
                         for _shard, start, stop in pipeline.shards]}

    def _pipeline_drop(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.close()
        return {}

    _OPS: dict[str, Callable[["WorkerOps", dict[str, Any]], dict[str, Any]]] = {
        "ping": _ping,
        "attach": _attach,
        "attach_done": _attach_done,
        "drop": _drop,
        "pipeline_start": _pipeline_start,
        "pipeline_level": _pipeline_level,
        "pipeline_finish": _pipeline_finish,
        "pipeline_fetch": _pipeline_fetch,
        "pipeline_abort": _pipeline_drop,
        "pipeline_release": _pipeline_drop,
    }

