"""The worker server: the one loop around the worker op table.

Run one per host (or several per host, one port each) for the
``remote`` backend::

    python -m repro.backend.remote.server --listen 0.0.0.0:7601

The ``process`` backend runs the same loop without a listener: it
spawns one process per lane whose target is :func:`serve_socket`, over
one end of a ``socketpair`` (no address, nothing to connect to).

Each connection speaks the framed protocol of
:mod:`repro.backend.remote.wire` and is one *lane*: it owns a
:class:`~repro.backend.worker.WorkerOps`, so no lane can serve a
different protocol, let alone different semantics.  What this module
adds is only what a socket needs: listening, the version handshake,
fault-injection hooks, and the raw column frames of a stream-plane
attach.

Tables are attached once per publication key and held in one pin-aware
:class:`~repro.storage.lru.LRUStore` shared by every connection;
per-event traffic stays the plan, shard lists and counting rows.  Column
data arrives through one of two negotiated planes:

* **shared memory** -- a server co-located with the coordinator attaches
  the published blocks (and per-session output blocks) directly; zero
  column bytes ever cross the socket.
* **stream** -- a cross-host server (or one started with ``--no-shm``)
  receives each column once as chunked raw frames at attach time, and
  serves session result columns back through ``pipeline_fetch`` ops.

Both planes execute identical kernels over identical bits, so the
assembled result is bit-identical either way -- the plane only decides
which wire the bytes ride.

A failing op produces an error reply and leaves the connection alive (an
open pipeline session is torn down so the next op starts clean); only a
dead socket or an explicit ``exit`` ends the connection loop.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import socket
import threading
import time
from multiprocessing import resource_tracker, shared_memory

from repro.backend.remote import wire
from repro.backend.shm import attach_block
from repro.backend.worker import WorkerOps, _TableEntry
from repro.storage.lru import LRUStore

__all__ = ["RemoteWorkerServer", "main", "serve_socket"]


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without tracker ownership.

    A standalone server process has its *own* resource tracker; a plain
    attach would register the coordinator's block there and the tracker
    would unlink it when the server exits -- yanking live segments out
    from under the coordinator.  In-process servers (tests, examples
    running the server on a thread) share the coordinator's tracker,
    where the attach registration is an idempotent no-op and
    unregistering would *break* the coordinator's cleanup -- they use
    the plain :func:`~repro.backend.shm.attach_block` instead.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        pass
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass
    return shm


class RemoteWorkerServer:
    """A threaded TCP worker server (one thread per connection).

    Usable standalone via :func:`main` or in-process for tests and
    examples: ``start()`` binds (port 0 picks a free port, see
    :attr:`endpoint`) and serves on a background thread; ``stop()`` tears
    everything down.  ``stall_ops`` and ``drop_connections()`` are fault
    -injection hooks for the timeout / reset test cases.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 allow_shm: bool = True, max_tables: float = 8,
                 untrack_shm: bool = False,
                 protocol_version: int | None = None):
        self.host = host
        self.port = port
        self.allow_shm = allow_shm
        self.untrack_shm = untrack_shm
        #: Version announced in the handshake; tests override it to
        #: exercise the client's mismatch handling.
        self.protocol_version = (wire.PROTOCOL_VERSION
                                 if protocol_version is None
                                 else protocol_version)
        #: Op names that should hang instead of replying (fault injection).
        self.stall_ops: set[str] = set()
        self._store: LRUStore[_TableEntry] = LRUStore(
            max_tables, on_evict=_TableEntry.close)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._closing = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "RemoteWorkerServer":
        listener = socket.create_server((self.host, self.port))
        listener.settimeout(0.2)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._closing.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-remote-accept", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop listening, drop live connections, release attached tables."""
        self._closing.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        self.drop_connections()
        self._store.clear()

    def drop_connections(self) -> None:
        """Abruptly close every live connection (fault injection / stop)."""
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            with contextlib.suppress(Exception):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(Exception):
                conn.close()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (standalone entrypoint)."""
        if self._accept_thread is None:
            self.start()
        try:
            while not self._closing.is_set():
                time.sleep(0.2)
        finally:
            self.stop()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(target=self._serve_connection, args=(conn,),
                             name="repro-remote-conn", daemon=True).start()

    # ------------------------------------------------------------------ #
    # Connection loop
    # ------------------------------------------------------------------ #
    def _serve_connection(self, conn: socket.socket) -> None:
        if conn.family != socket.AF_UNIX:  # no such option on AF_UNIX
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        ops = WorkerOps(
            self._store, allow_shm=self.allow_shm,
            attach=_attach_untracked if self.untrack_shm else attach_block)
        try:
            if not self._handshake(conn):
                return
            while not self._closing.is_set():
                msg, _ = wire.read_obj(conn)
                op = msg.get("op")
                if op in self.stall_ops:
                    # Fault injection: hold the reply until the peer gives
                    # up (its read deadline fires) or the server stops.
                    self._closing.wait(60.0)
                    break
                if op == "column_data":
                    reply = self._receive_column(conn, msg, ops)
                else:
                    reply = {"ok": True} if op == "exit" else ops.dispatch(msg)
                wire.send_obj(conn, reply)
                if op == "exit":
                    break
        except wire.WireError:
            pass  # dead socket: the lane ends, its session with it
        finally:
            ops.close()
            with self._conn_lock:
                self._conns.discard(conn)
            with contextlib.suppress(Exception):
                conn.close()

    def _handshake(self, conn: socket.socket) -> bool:
        try:
            hello, _ = wire.read_obj(conn, deadline=time.monotonic() + 30.0)
        except wire.WireError:
            return False
        theirs = hello.get("version") if isinstance(hello, dict) else None
        reply = {
            "ok": theirs == self.protocol_version,
            "version": self.protocol_version,
            "pid": os.getpid(),
            "shm": self.allow_shm,
        }
        if not reply["ok"]:
            reply["error"] = (f"protocol version {theirs} != "
                              f"{self.protocol_version}")
        try:
            wire.send_obj(conn, reply)
        except wire.WireError:
            return False
        return bool(reply["ok"])

    @staticmethod
    def _receive_column(conn: socket.socket, msg: dict,
                        ops: WorkerOps) -> dict:
        """Read one column's raw frames into the lane's upload buffer.

        The only op the socket loop serves itself: its payload follows
        the control frame as raw chunks, which no other transport has.
        ``attach_done`` (a regular op) turns the uploads into a table.
        """
        nbytes = int(msg["nbytes"])
        buf = bytearray(nbytes)
        wire.read_raw_into(conn, buf, nbytes,
                           deadline=time.monotonic() + 120.0)
        ops.uploads.setdefault(msg["table_id"], {})[msg["name"]] = buf
        return {"ok": True}


def serve_socket(sock: socket.socket) -> None:
    """Serve one connected socket until EOF: a spawned local worker.

    The ``process`` backend's lane.  Its spawner shares this process's
    resource tracker (plain :func:`~repro.backend.shm.attach_block`), and
    its table store is unbounded: the coordinator's own LRU decides what
    a lane holds, via ``drop``.
    """
    server = RemoteWorkerServer(max_tables=math.inf)
    try:
        server._serve_connection(sock)
    finally:
        server._store.clear()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro remote worker server")
    parser.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="address to listen on (port 0 = ephemeral)")
    parser.add_argument("--no-shm", action="store_true",
                        help="never attach coordinator shared memory; "
                             "stream columns over TCP instead")
    parser.add_argument("--max-tables", type=int, default=8,
                        help="attached-table LRU capacity (default 8)")
    args = parser.parse_args(argv)
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--listen expects HOST:PORT, got {args.listen!r}")
    server = RemoteWorkerServer(
        host, int(port),
        allow_shm=not args.no_shm,
        max_tables=args.max_tables,
        untrack_shm=True,
    )
    server.start()
    # Parsed by scripts that launch workers on ephemeral ports.
    print(f"repro-remote-worker listening on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
