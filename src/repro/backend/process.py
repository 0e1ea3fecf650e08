"""``process`` backend: a persistent shared-memory worker pool.

Whole-pipeline sessions run in a pool of spawned worker processes that
map the table's published columns zero-copy from shared memory
(:mod:`repro.backend.shm`).  Per-event pipe traffic is only the pickled
plan, shard spans, block names and partials -- never column data --
which is what makes the process boundary cheaper than the columns it
parallelises over.

This module is the *pipe transport*: :class:`_WorkerPool` moves one
message per worker per round and knows nothing about what the messages
mean.  The op itself lives in
:class:`repro.backend.coordinator.Coordinator` (which
:class:`ProcessBackend` extends) and, worker-side, in
:class:`repro.backend.worker.WorkerOps`.

One worker pool is shared process-wide (reference-counted by backend
instances, spawned lazily, respawned lazily after a failure) because the
natural unit of parallelism is the machine, not the engine: the
differential suite runs dozens of engines over the same tables and must
not spawn dozens of pools.  The ``spawn`` start method is used
deliberately -- the engine executes on threads (FeedbackService sessions),
and forking a threaded coordinator risks inheriting held locks.

Faults follow the coordinator's two-kind taxonomy: a rejected or
unserialisable op (:class:`WorkerOpError`) keeps the pool; a dead pipe
or a timeout (:class:`WorkerPoolError`) marks it broken, discards it,
and the next op respawns a fresh one.  Either way the event completes
bit-identically on the coordinator.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from contextlib import contextmanager
from typing import Any

from repro.backend.coordinator import (
    Coordinator,
    OutputBuffer,
    WorkerOpError,
    WorkerPoolError,
    raise_rejected,
    serialise,
    traced_round,
)
from repro.backend.shm import PublishedTable, ShmColumnStore

__all__ = [
    "ProcessBackend",
    "WorkerOpError",
    "WorkerPoolError",
    "shutdown_process_backend",
]


class _WorkerPool:
    """Spawned workers, one duplex pipe each, ops serialised by a lock.

    Implements :class:`repro.backend.coordinator.Transport`: a lane is a
    worker, and every lane maps coordinator shared memory.
    """

    def __init__(self, size: int):
        ctx = multiprocessing.get_context("spawn")
        self.size = size
        self.lock = threading.RLock()
        #: Set under ``lock`` when a broadcast failed part-way: some
        #: workers may hold unread replies (or never got their message),
        #: so the pipes are no longer request/reply aligned.  A broken
        #: pool refuses every further broadcast -- reusing it would pair
        #: requests with stale replies and return *wrong data*, not an
        #: error.  ``_get_pool`` discards and respawns it.
        self.broken = False
        #: Publication keys every live worker has attached.
        self.attached: set[str] = set()
        self.workers: list[tuple[Any, Any]] = []
        from repro.backend.worker import worker_main
        for i in range(size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=worker_main, args=(child,),
                               name=f"repro-exec-{i}", daemon=True)
            proc.start()
            child.close()
            self.workers.append((proc, parent))

    def pids(self) -> list[int]:
        return [proc.pid for proc, _ in self.workers]

    def alive_count(self) -> int:
        return sum(1 for proc, _ in self.workers if proc.is_alive())

    def broadcast(self, messages: list[dict[str, Any]],
                  timeout: float) -> tuple[list[dict[str, Any]], int, int]:
        """Send ``messages[i]`` to worker ``i`` and collect one reply each.

        Every message is serialised before anything is sent, so a pickling
        failure raises :class:`WorkerOpError` with the pipes still aligned.
        Any transport failure -- a ``send_bytes`` that breaks midway
        through the loop just as much as a recv/timeout -- marks the pool
        :attr:`broken` before raising :class:`WorkerPoolError`: workers
        already sent to have unread replies queued, so the pipes are
        misaligned and the pool must never be reused.
        Returns ``(replies, bytes_out, bytes_in)``.
        """
        payloads = serialise(messages)
        bytes_out = sum(len(p) for p in payloads)
        bytes_in = 0
        deadline = time.monotonic() + timeout
        with self.lock:
            if self.broken:
                raise WorkerPoolError("pool is broken (pipes misaligned)")
            try:
                for (_, conn), payload in zip(self.workers, payloads):
                    conn.send_bytes(payload)
                replies: list[dict[str, Any]] = []
                for proc, conn in self.workers[:len(payloads)]:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not conn.poll(remaining):
                        self.broken = True
                        raise WorkerPoolError(
                            f"worker {proc.pid} timed out after {timeout:.0f}s")
                    data = conn.recv_bytes()
                    bytes_in += len(data)
                    replies.append(pickle.loads(data))
            except WorkerPoolError:
                raise
            except Exception as exc:
                self.broken = True
                raise WorkerPoolError(f"worker pipe failed: {exc!r}") from exc
        raise_rejected(replies)
        return replies, bytes_out, bytes_in

    # -- Transport ------------------------------------------------------- #
    @property
    def lane_names(self) -> list[str]:
        return [str(pid) for pid in self.pids()]

    @contextmanager
    def session(self, width: int):
        """Hold the pool for one op; rounds address the first lanes.

        ``broadcast`` re-acquires the lock re-entrantly, so concurrent
        ops and evict notifications queue behind the session instead of
        interleaving with its request/reply pairs.
        """
        with self.lock:
            yield min(self.size, width)

    def attach(self, published: PublishedTable, timeout: float,
               refresh: bool = False) -> int:
        """Attach ``published`` on every worker once per pool generation."""
        if published.key in self.attached and not refresh:
            return 0
        msg = {"op": "attach", "manifest": published.manifest}
        replies, bytes_out, bytes_in = traced_round(
            self, [msg] * self.size, timeout, "backend.attach",
            table=published.key)
        if any(reply.get("mode") != "shm" for reply in replies):
            raise WorkerOpError("a worker could not map the publication")
        self.attached.add(published.key)
        return bytes_out + bytes_in

    def output_buffer(self, nbytes: int) -> OutputBuffer:
        return OutputBuffer(nbytes, [True] * self.size)

    def round(self, messages: list[dict[str, Any]], timeout: float):
        """:meth:`broadcast`, discarding the pool on a transport fault."""
        try:
            return self.broadcast(messages, timeout)
        except WorkerPoolError:
            _discard_pool(self)
            raise

    def abort(self, token: str, timeout: float) -> None:
        if self.broken:
            return  # unusable either way; already discarded
        try:
            self.broadcast(
                [{"op": "pipeline_abort", "token": token}] * self.size,
                timeout)
        except Exception:
            pass

    def terminate(self) -> None:
        """Tear the pool down; never blocks on live work for long."""
        with self.lock:
            for _, conn in self.workers:
                try:
                    conn.close()
                except Exception:  # pragma: no cover
                    pass
            for proc, _ in self.workers:
                if proc.is_alive():
                    proc.terminate()
            for proc, _ in self.workers:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck in a kernel
                    proc.kill()
                    proc.join(timeout=1.0)


# --------------------------------------------------------------------------- #
# Process-wide shared state
# --------------------------------------------------------------------------- #
_STATE_LOCK = threading.RLock()
_POOL: _WorkerPool | None = None
_POOL_REFS = 0


def _notify_evict(published: PublishedTable) -> None:
    """Tell live workers to drop their mappings of an evicted table."""
    with _STATE_LOCK:
        pool = _POOL
    if pool is None or published.key not in pool.attached:
        return
    pool.attached.discard(published.key)
    try:
        pool.broadcast(
            [{"op": "drop", "table_id": published.key}] * pool.size,
            timeout=30.0,
        )
    except WorkerPoolError:
        _discard_pool(pool)
    except Exception:  # pragma: no cover - best effort
        pass


_STORE = ShmColumnStore(on_evict=_notify_evict)


def _get_pool(size: int) -> _WorkerPool:
    """The shared pool, spawned lazily (first requester fixes the size).

    A pool marked broken by a misaligned broadcast is replaced here, so
    the fault costs one respawn instead of poisoning later ops.
    """
    global _POOL
    with _STATE_LOCK:
        if _POOL is not None and _POOL.broken:
            stale, _POOL = _POOL, None
        else:
            stale = None
    if stale is not None:
        stale.terminate()
    with _STATE_LOCK:
        if _POOL is None:
            _POOL = _WorkerPool(size)
        return _POOL


def _discard_pool(pool: _WorkerPool) -> None:
    """Drop a failed pool; the next op respawns a fresh one lazily."""
    global _POOL
    with _STATE_LOCK:
        if _POOL is pool:
            _POOL = None
    pool.terminate()


def _acquire_ref() -> None:
    global _POOL_REFS
    with _STATE_LOCK:
        _POOL_REFS += 1


def _release_ref() -> None:
    global _POOL_REFS, _POOL
    with _STATE_LOCK:
        _POOL_REFS = max(0, _POOL_REFS - 1)
        if _POOL_REFS:
            return
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.terminate()


def shutdown_process_backend() -> None:
    """Terminate the shared pool and destroy every published table.

    Registered ``atexit`` (see :mod:`repro.backend`) so interpreter
    shutdown never hangs on live workers; safe to call any time -- open
    backends respawn the pool lazily on their next op.
    """
    global _POOL
    with _STATE_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.terminate()
    _STORE.close()


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #
class ProcessBackend(Coordinator):
    """Pipeline sessions in the shared-memory pool."""

    name = "process"
    store = _STORE

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        _acquire_ref()

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        _release_ref()

    def _open_transport(self) -> _WorkerPool:
        size = self.max_workers if self.max_workers is not None \
            else os.cpu_count() or 1
        return _get_pool(max(1, size))

    def _gauges(self) -> dict[str, int]:
        with _STATE_LOCK:
            pool = _POOL
        return {
            "worker_count": pool.size if pool is not None else 0,
            "workers_alive": pool.alive_count() if pool is not None else 0,
        }

    def worker_pids(self) -> list[int]:
        """Pids of the shared pool's workers ([] while no pool is up)."""
        with _STATE_LOCK:
            pool = _POOL
        return pool.pids() if pool is not None else []
