"""The socket transport, and the ``remote`` backend on top of it.

The ``remote`` fleet is configured by
``REPRO_REMOTE_WORKERS=host:port,host:port`` (re-read on every op, so
endpoints can be added or dropped between events) and selected per
engine via ``PipelineConfig(backend="remote")`` or
``REPRO_BACKEND=remote``.  Each endpoint is one
:class:`~repro.backend.remote.server.RemoteWorkerServer`; the client
keeps a small pool of framed TCP connections per endpoint
(:mod:`repro.backend.remote.wire`), with connect/read timeouts, an
idle-connection heartbeat, and a version handshake on every connect.

The ``process`` backend (:mod:`repro.backend.process`) rides the same
transport over *local* endpoints: servers this process spawns, one per
lane, each on one end of a ``socketpair``.  They listen on nothing.  A
local endpoint owns its process, has exactly one connection (ops take
turns on it), and is respawned by the next op after a fault instead of
being re-probed after a cooldown.

Column data moves over a *negotiated data plane*, once per
``Table.export_id``: tables are published into the one shared-memory
:data:`STORE`, and each endpoint either attaches the published blocks
directly (a co-located server, every local one: zero column bytes on
the socket) or has the columns chunk-streamed to it once at attach time
(a cross-host server).  Either way, per-event wire traffic stays the
plan, shard lists and counting rows -- the ``remote_traffic_ratio`` headline
in ``benchmarks/bench_backend.py``.

:class:`_Fleet` pins one connection per endpoint for the length of an
op and moves one message per endpoint per round.  The op itself lives
in :class:`repro.backend.coordinator.Coordinator` and, server-side, in
:class:`repro.backend.worker.WorkerOps`.

Faults follow the coordinator's two-kind taxonomy (a backend failure can
make an event slower, never wrong):

* any transport fault -- connection refused, reset mid-round, read
  timeout, protocol version mismatch -- is a
  :class:`~repro.backend.coordinator.WorkerPoolError`: the endpoint is
  marked down first (a remote one is re-probed lazily after
  ``reprobe_interval``, successful re-connects counted in
  ``endpoint_reconnects``; a local one is killed and respawned by the
  next op), and every connection the op pinned is closed -- replies may
  be pending on any of them, and reusing one would pair a request with a
  stale reply (wrong data, not an error); the server drops its session
  state with the connection.
* an op rejected by a healthy server (error reply; e.g. an evicted
  table publication) is a
  :class:`~repro.backend.coordinator.WorkerOpError`: every reply was
  drained, so the endpoint and its connections stay in service.

Configuration errors (a malformed ``REPRO_REMOTE_WORKERS``) raise
``ValueError`` loudly -- the same fail-fast contract as ``REPRO_SHARDS``
-- rather than being swallowed as fallbacks.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
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
)
from repro.backend.remote import wire
from repro.backend.shm import PublishedTable, ShmColumnStore
from repro.obs import trace as obs

__all__ = [
    "ENV_WORKERS",
    "STORE",
    "RemoteBackend",
    "hold_local_fleet",
    "local_endpoints",
    "parse_remote_workers",
    "shutdown_fleet",
]

ENV_WORKERS = "REPRO_REMOTE_WORKERS"

#: Idle connections kept per endpoint; extras are closed on return.
MAX_IDLE_CONNS = 4


def parse_remote_workers(value: str) -> tuple[tuple[str, int], ...]:
    """Parse ``host:port,host:port`` (empty -> no fleet configured)."""
    value = value.strip()
    if not value:
        return ()
    endpoints: list[tuple[str, int]] = []
    for item in value.split(","):
        item = item.strip()
        host, _, port = item.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"{ENV_WORKERS} entries must be host:port, got {item!r}")
        endpoints.append((host, int(port)))
    return tuple(endpoints)


class _Connection:
    """One framed, handshaken connection to a worker server."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.last_used = time.monotonic()
        self.server_shm = True

    def handshake(self, deadline: float) -> None:
        wire.send_obj(self.sock, {"op": "hello",
                                  "version": wire.PROTOCOL_VERSION,
                                  "pid": os.getpid()})
        reply, _ = wire.read_obj(self.sock, deadline)
        theirs = reply.get("version")
        if theirs != wire.PROTOCOL_VERSION:
            raise wire.VersionMismatch(theirs)
        if not reply.get("ok"):
            raise wire.WireError(str(reply.get("error", "handshake refused")))
        self.server_shm = bool(reply.get("shm", True))

    def send(self, msg: dict[str, Any]) -> int:
        return wire.send_obj(self.sock, msg)

    def recv(self, deadline: float) -> tuple[dict[str, Any], int]:
        """One reply; it also stamps :attr:`last_used` (a connection goes
        idle only after a reply)."""
        reply, nbytes = wire.read_obj(self.sock, deadline)
        self.last_used = time.monotonic()
        return reply, nbytes

    def request(self, msg: dict[str, Any],
                deadline: float) -> tuple[dict[str, Any], int]:
        """One request/reply; raises :class:`WorkerOpError` on error replies.

        Returns ``(reply, wire_bytes)``.  An error reply leaves the
        connection request/reply aligned -- only :class:`wire.WireError`
        means the transport itself failed.
        """
        nbytes = self.send(msg)
        reply, reply_bytes = self.recv(deadline)
        raise_rejected([reply])
        return reply, nbytes + reply_bytes

    def close(self) -> None:
        self.sock.close()


def _fault_code(exc: BaseException) -> str | None:
    """``timeout`` / ``closed`` for the two transport faults with a name."""
    if isinstance(exc, (wire.WireTimeout, socket.timeout)):
        return "timeout"
    if isinstance(exc, (wire.WireClosed, ConnectionError)):
        return "closed"
    return None


class _Endpoint:
    """Client-side state of one worker server: health and connections.

    A *remote* endpoint (``address`` set) is a server someone else runs:
    it keeps a few idle TCP connections, pings one that sat idle before
    trusting it, and after a fault sits out ``reprobe_interval`` before a
    lazy re-probe.  A *local* endpoint (``address`` None) is a server
    this process spawned and owns (:attr:`proc`), on one end of a
    ``socketpair``: that connection is the server's only link, so ops
    take turns on it (:attr:`slots`), and a fault kills the process --
    the next op respawns it, with no cooldown.
    """

    def __init__(self, key: str, address: tuple[str, int] | None = None):
        self.key = key
        self.address = address
        self.local = address is None
        self.lock = threading.Lock()
        #: Connections that may be out at once: a local server has one.
        self.slots = threading.Semaphore(1 if self.local else sys.maxsize)
        self.idle: list[_Connection] = []
        self.proc = None
        #: Our end of a spawned server's socketpair, until it is connected.
        self._sock: socket.socket | None = None
        self.healthy = True
        self.last_probe = 0.0
        self.ever_connected = False
        #: None until the first attach decides the data plane; True when
        #: this endpoint reaches the coordinator's shared memory.
        self.shm_ok: bool | None = None
        #: Publication key -> negotiated mode ("shm" / "stream").
        self.attached: dict[str, str] = {}

    def spawn(self) -> None:
        """Start a local endpoint's server unless it has one (no waiting).

        ``spawn``, not ``fork``: the engine runs on threads, and a forked
        child would inherit their locks in unknown states.
        """
        from repro.backend.remote.server import serve_socket

        with self.lock:
            if self.proc is not None:
                return
            ours, theirs = socket.socketpair()
            with theirs:
                proc = _SPAWN.Process(target=serve_socket, args=(theirs,),
                                      name="repro-exec", daemon=True)
                proc.start()
            self.proc, self._sock, self.key = proc, ours, str(proc.pid)

    def connect(self, connect_timeout: float) -> _Connection:
        if self.local:
            self.spawn()
            with self.lock:
                sock, self._sock = self._sock, None
        else:
            sock = socket.create_connection(self.address,
                                            timeout=connect_timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        try:
            conn.handshake(time.monotonic() + connect_timeout)
        except BaseException:
            conn.close()
            raise
        if not conn.server_shm:
            self.shm_ok = False
        return conn

    def borrow(self, backend: Coordinator) -> tuple[_Connection, int]:
        """An aligned connection, freshly heartbeaten when it sat idle.

        ``backend`` supplies the timeouts.  Returns ``(conn, reconnects)``
        where ``reconnects`` counts new TCP connections established beyond
        this endpoint's first -- the dead-peer replacements and lazy
        re-probes the ``endpoint_reconnects`` stat reports.  A local
        endpoint waits for the op holding its one connection, and spawns
        its server within ``op_timeout`` when there is none.
        """
        self.slots.acquire()
        try:
            return self._take(backend)
        except BaseException:
            self.slots.release()
            raise

    def _take(self, backend: Coordinator) -> tuple[_Connection, int]:
        reconnects = 0
        while True:
            with self.lock:
                conn = self.idle.pop() if self.idle else None
            if conn is None:
                break
            if self.local or (time.monotonic() - conn.last_used
                              < backend.heartbeat_interval):
                return conn, reconnects
            # Heartbeat a stale connection before trusting it: a dead
            # peer is detected here, not mid-op.
            try:
                conn.request({"op": "ping"},
                             time.monotonic() + min(backend.op_timeout, 10.0))
                return conn, reconnects
            except (wire.WireError, WorkerOpError):
                conn.close()
        try:
            conn = self.connect(backend.op_timeout if self.local
                                else backend.connect_timeout)
        except (OSError, wire.WireError) as exc:
            self.mark_down()
            raise WorkerPoolError(f"endpoint {self.key} unreachable: {exc}",
                                  _fault_code(exc)) from exc
        if self.ever_connected:
            reconnects += 1
        # A local respawn is a restart, counted at the fault that caused it.
        self.ever_connected = not self.local
        self.healthy = True
        return conn, reconnects

    def release(self, conn: _Connection, keep: bool) -> None:
        """Hand back a borrowed connection: pooled if ``keep``, else closed.

        Only a request/reply aligned connection may be kept.  Closing a
        local endpoint's connection ends its server, which goes down
        with it.
        """
        if keep:
            with self.lock:
                if len(self.idle) < MAX_IDLE_CONNS:
                    self.idle.append(conn)
                    conn = None
        if conn is not None:
            conn.close()
            if self.local:
                self.mark_down()
        self.slots.release()

    def mark_down(self) -> None:
        """Endpoint failed: drop its connections (and a local server)."""
        self.healthy = False
        self.last_probe = time.monotonic()
        # A fresh connection will have to re-negotiate attachments: the
        # server may have restarted with an empty table store.
        self.attached.clear()
        self.close_all()

    def close_all(self) -> None:
        with self.lock:
            conns, self.idle = self.idle, []
            sock, self._sock = self._sock, None
            proc, self.proc = self.proc, None
        for conn in conns:
            conn.close()
        if sock is not None:
            sock.close()
        if proc is not None:  # a spawned server: killed and reaped
            proc.kill()
            proc.join()


# --------------------------------------------------------------------------- #
# Process-wide fleet state
# --------------------------------------------------------------------------- #
_SPAWN = multiprocessing.get_context("spawn")
_FLEET_LOCK = threading.RLock()
#: Configured remote endpoints, by ``host:port``.
_ENDPOINTS: dict[str, _Endpoint] = {}
_CONFIG: tuple[str, tuple[tuple[str, int], ...]] | None = None
#: The local fleet, shared by every ``process`` backend instance.
_LOCAL: list[_Endpoint] = []
_LOCAL_REFS = 0


def _current_endpoints() -> list[_Endpoint]:
    """The configured fleet, re-parsed whenever the env value changes.

    Endpoints dropped from ``REPRO_REMOTE_WORKERS`` have their pooled
    connections closed immediately; new entries join cold and connect on
    first use.
    """
    global _CONFIG
    raw = os.environ.get(ENV_WORKERS, "")
    with _FLEET_LOCK:
        if _CONFIG is None or _CONFIG[0] != raw:
            parsed = parse_remote_workers(raw)
            keys = {f"{host}:{port}" for host, port in parsed}
            for key in [k for k in _ENDPOINTS if k not in keys]:
                _ENDPOINTS.pop(key).close_all()
            for host, port in parsed:
                key = f"{host}:{port}"
                if key not in _ENDPOINTS:
                    _ENDPOINTS[key] = _Endpoint(key, (host, port))
            _CONFIG = (raw, parsed)
        return [_ENDPOINTS[f"{host}:{port}"] for host, port in _CONFIG[1]]


def local_endpoints(size: int | None = None) -> list[_Endpoint]:
    """The local fleet; ``size`` creates it when absent (first one wins).

    Creating spawns nothing: a server starts on its endpoint's first op.
    """
    with _FLEET_LOCK:
        if size is not None and not _LOCAL:
            _LOCAL.extend(_Endpoint(f"local-{i}") for i in range(size))
        return list(_LOCAL)


def hold_local_fleet(delta: int) -> None:
    """Count a ``process`` backend in (+1) or out (-1); the last one out
    stops the local servers."""
    global _LOCAL_REFS
    with _FLEET_LOCK:
        _LOCAL_REFS = max(0, _LOCAL_REFS + delta)
        if _LOCAL_REFS:
            return
        endpoints = list(_LOCAL)
        _LOCAL.clear()
    for endpoint in endpoints:
        endpoint.close_all()


def _notify_drop(published: PublishedTable) -> None:
    """Tell every endpoint holding an evicted publication to drop it."""
    with _FLEET_LOCK:
        endpoints = list(_ENDPOINTS.values()) + _LOCAL
    for endpoint in endpoints:
        if published.key not in endpoint.attached:
            continue
        endpoint.attached.pop(published.key, None)
        if not endpoint.healthy:
            continue
        try:
            conn, _ = endpoint.borrow(RemoteBackend)
        except WorkerPoolError:
            continue
        try:
            conn.request({"op": "drop", "table_id": published.key},
                         time.monotonic() + 30.0)
            keep = True
        except (wire.WireError, WorkerOpError):
            keep = False
        endpoint.release(conn, keep)


#: Where both socket backends publish table columns.
STORE = ShmColumnStore(on_evict=_notify_drop)


def shutdown_fleet() -> None:
    """Stop local servers, close every connection, destroy publications.

    Registered ``atexit`` (see :mod:`repro.backend`); safe any time --
    live backends respawn and reconnect lazily on their next op.
    """
    global _CONFIG
    with _FLEET_LOCK:
        endpoints = list(_ENDPOINTS.values()) + _LOCAL
        _ENDPOINTS.clear()
        _LOCAL.clear()
        _CONFIG = None
    for endpoint in endpoints:
        endpoint.close_all()
    STORE.close()


class _Fleet:
    """One op's pinned connections, one per endpoint.

    Implements :class:`repro.backend.coordinator.Transport`: a lane is an
    endpoint reached through the connection pinned for this op.  Built
    per op by the backend whose timeouts and counters it reads and feeds.
    """

    def __init__(self, endpoints: list[_Endpoint], backend: Coordinator):
        self.endpoints = endpoints
        self.backend = backend
        self.pairs: list[tuple[_Endpoint, _Connection]] = []
        #: False while a request may be unanswered on a pinned connection
        #: (mid-round, or after any fault): such connections are closed,
        #: never pooled -- the next request would pair with a stale reply.
        self.aligned = True

    @property
    def lane_names(self) -> list[str]:
        return [endpoint.key for endpoint, _ in self.pairs]

    @contextmanager
    def session(self, width: int):
        """Pin one connection on each of the first ``width`` endpoints.

        A failing endpoint fails the whole op (the caller falls back) --
        the lane assignment is fixed by the pinned set, and re-planning
        around a missing endpoint mid-op is how replies get paired with
        the wrong requests.
        """
        try:
            for endpoint in self.endpoints[:width]:
                conn, reconnects = endpoint.borrow(self.backend)
                self.pairs.append((endpoint, conn))
                if reconnects:
                    self.backend._count(endpoint_reconnects=reconnects)
            yield len(self.pairs)
        finally:
            for endpoint, conn in self.pairs:
                endpoint.release(conn, self.aligned)
            self.pairs = []

    def _fault(self, endpoint: _Endpoint, what: str,
               exc: Exception) -> WorkerPoolError:
        endpoint.mark_down()
        return WorkerPoolError(f"{what} {endpoint.key} failed: {exc}",
                               _fault_code(exc))

    # ------------------------------------------------------------------ #
    # Publish / attach negotiation
    # ------------------------------------------------------------------ #
    def attach(self, published: PublishedTable, timeout: float,
               refresh: bool = False) -> int:
        """Negotiate the data plane for ``published`` on every lane.

        A fault here is a round fault like any other: the endpoint goes
        down and the op falls back; the next op reconnects (or respawns)
        and attaches afresh.
        """
        if refresh:
            for endpoint, _ in self.pairs:
                endpoint.attached.pop(published.key, None)
        if all(published.key in endpoint.attached
               for endpoint, _ in self.pairs):
            return 0
        total = 0
        self.aligned = False
        with obs.span("backend.attach", workers=len(self.pairs),
                      table=published.key) as span:
            for endpoint, conn in self.pairs:
                try:
                    total += self._ensure_attached(endpoint, conn, published,
                                                   timeout)
                except (wire.WireError, WorkerOpError) as exc:
                    raise self._fault(endpoint, "attach on", exc) from exc
            span.annotate(bytes=total)
        self.aligned = True
        return total

    def _ensure_attached(self, endpoint: _Endpoint, conn: _Connection,
                         published: PublishedTable, timeout: float) -> int:
        """One endpoint's attach exchange; returns wire bytes spent."""
        if published.key in endpoint.attached:
            return 0
        manifest = published.manifest
        msg = {"op": "attach", "manifest": manifest}
        if endpoint.shm_ok is False:
            msg["mode_hint"] = "stream"
        reply, nbytes = conn.request(msg, time.monotonic() + timeout)
        mode = reply.get("mode", "stream")
        if mode == "shm":
            endpoint.shm_ok = True
        else:
            if endpoint.shm_ok is None:
                endpoint.shm_ok = False
            # "have" marks the server's contains fast path: it kept the
            # table from an earlier connection, so skip the upload.
            if not reply.get("have"):
                nbytes += self._stream_columns(conn, published, timeout)
                _, done_bytes = conn.request(
                    {"op": "attach_done", "manifest": manifest},
                    time.monotonic() + timeout)
                nbytes += done_bytes
        endpoint.attached[published.key] = mode
        return nbytes

    def _stream_columns(self, conn: _Connection, published: PublishedTable,
                        timeout: float) -> int:
        """Ship the published column bytes once, chunk-streamed.

        The source is the publication's own shared-memory blocks, so a
        stream-plane endpoint sees exactly the bits a shm-plane endpoint
        maps -- bit-identity cannot depend on the plane.
        """
        manifest = published.manifest
        rows = manifest["rows"]
        total = 0
        column_bytes = 0
        for spec, block in zip(manifest["columns"], published.blocks):
            nbytes = spec.get("nbytes", rows * 8)
            total += conn.send({"op": "column_data",
                                "table_id": manifest["table_id"],
                                "name": spec["name"],
                                "nbytes": nbytes})
            total += wire.send_raw(conn.sock, block.buf[:nbytes])
            reply, reply_bytes = conn.recv(time.monotonic() + timeout)
            total += reply_bytes
            raise_rejected([reply])
            column_bytes += nbytes
        self.backend._count(remote_published_bytes=column_bytes)
        return total

    # ------------------------------------------------------------------ #
    # Rounds
    # ------------------------------------------------------------------ #
    def output_buffer(self, nbytes: int) -> OutputBuffer:
        return OutputBuffer(
            nbytes, [bool(endpoint.shm_ok) for endpoint, _ in self.pairs],
            self.backend.store)

    def round(self, messages: list[dict[str, Any] | None], timeout: float):
        """Send ``messages[i]`` on lane ``i``, collect one reply each.

        All requests go out before any reply is read, so the servers
        compute in parallel.  A transport fault marks that endpoint down
        and leaves the session misaligned (every pinned connection is
        closed at exit: replies may be pending anywhere); an error reply
        is raised only after every reply is drained, keeping all
        connections aligned.
        """
        bodies = serialise(messages)
        deadline = time.monotonic() + timeout
        bytes_out = bytes_in = 0
        replies: list[dict[str, Any] | None] = []
        self.aligned = False
        for (endpoint, conn), body in zip(self.pairs, bodies):
            if body is None:
                continue
            try:
                bytes_out += wire.send_frame(conn.sock, body)
            except wire.WireError as exc:
                raise self._fault(endpoint, "send to", exc) from exc
        for (endpoint, conn), body in zip(self.pairs, bodies):
            if body is None:
                replies.append(None)
                continue
            try:
                reply, nbytes = conn.recv(deadline)
            except wire.WireError as exc:
                raise self._fault(endpoint, "reply from", exc) from exc
            bytes_in += nbytes
            replies.append(reply)
        self.aligned = True
        raise_rejected(replies)
        return replies, bytes_out, bytes_in

    def abort(self, token: str, timeout: float) -> None:
        if not self.aligned:
            return  # the connections get closed: that is the abort
        try:
            self.round([{"op": "pipeline_abort", "token": token}]
                       * len(self.pairs), timeout)
        except Exception:
            self.aligned = False


# --------------------------------------------------------------------------- #
# The backend
# --------------------------------------------------------------------------- #
class RemoteBackend(Coordinator):
    """Run pipeline sessions on the TCP worker fleet.

    With no ``REPRO_REMOTE_WORKERS`` configured the op declines
    instantly (no sockets, no counters) -- the backend is then
    behaviourally the ``threads`` backend, which keeps the differential
    suite meaningful without live servers.
    """

    name = "remote"
    store = STORE

    #: TCP connect + handshake budget, seconds.
    connect_timeout = 10.0
    #: Idle age beyond which a pooled connection is pinged before reuse.
    heartbeat_interval = 30.0
    #: How long an unhealthy endpoint sits out before a lazy re-probe.
    reprobe_interval = 5.0

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._counters.update(endpoint_reconnects=0,
                              remote_published_bytes=0)

    def _configured(self) -> bool:
        return bool(_current_endpoints())

    def _open_transport(self) -> _Fleet:
        """A fleet over the endpoints worth trying right now.

        Unhealthy endpoints rejoin once their re-probe cooldown has
        elapsed; the connect attempt inside ``borrow`` is the probe.
        """
        now = time.monotonic()
        usable = [
            ep for ep in _current_endpoints()
            if ep.healthy or now - ep.last_probe >= self.reprobe_interval
        ]
        if not usable:
            # Nothing new broke: the op is declined, no lane is lost.
            raise WorkerOpError("every endpoint is down (re-probe pending)",
                                fault="no-endpoint")
        return _Fleet(usable, self)

    def _gauges(self) -> dict[str, int]:
        endpoints = _current_endpoints()
        return {"worker_count": len(endpoints),
                "workers_alive": sum(ep.healthy for ep in endpoints)}

    def stats(self) -> dict[str, int]:
        stats = super().stats()
        # Every fallback of this backend is a remote one; the key predates
        # the shared schema and dashboards read it.
        stats["remote_fallbacks"] = stats["fallbacks"]
        return stats
