"""RemoteBackend subsystem tests: wire framing, data planes, fault injection.

Servers run in-thread (``RemoteWorkerServer`` on port 0) so every test
controls its own fleet; the standalone entrypoint gets one subprocess
smoke test.  The fault cases follow ``tests/test_backend_pipeline.py``:
every injected fault -- reset mid-session, read timeout mid-broadcast,
wrong protocol version, endpoint dropped from the fleet -- must degrade
to a bit-identical in-process run and show up in the expected counters,
never in the output.
"""

import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import PipelineConfig, Query, QueryEngine
from repro.backend.remote import (
    ENV_WORKERS,
    RemoteBackend,
    parse_remote_workers,
)
from repro.backend.remote import wire
from repro.backend.remote.server import RemoteWorkerServer
from repro.obs.trace import Trace, use_trace

from census import module_census
from test_backend import (
    assert_frames_identical,
    cold_frame,
    cold_open,
    make_condition,
    make_table,
)
from test_backend_pipeline import (
    assert_columns_adopted,
    deleted_shm_mappings,
    node_columns,
    pipeline_condition,
)


@pytest.fixture(scope="module", autouse=True)
def _census():
    """Nothing this module starts may outlive it (``tests/census.py``)."""
    yield from module_census()


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
@pytest.fixture
def fleet(monkeypatch):
    """Two in-thread worker servers, wired into REPRO_REMOTE_WORKERS."""
    servers = [RemoteWorkerServer().start(), RemoteWorkerServer().start()]
    monkeypatch.setenv(
        ENV_WORKERS, ",".join(server.endpoint for server in servers))
    yield servers
    for server in servers:
        server.stop()


def remote_prepared(shards=4, *, cond=None, table=None):
    table = table if table is not None else make_table()
    config = PipelineConfig(shard_count=shards, max_workers=2,
                            backend="remote", percentage=0.4)
    engine = QueryEngine(table, config)
    query = Query(name="remote-test", tables=[table.name],
                  condition=cond if cond is not None else make_condition())
    return engine, table, engine.prepare(query)


def backend_stats(engine):
    return engine.stats()["backend"]


def offload_fault(trace):
    """The ``backend_fault`` a traced event's one offload declined with."""
    (offload,) = trace.find("pipeline.offload")
    return offload.attrs["backend_fault"]


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
def socket_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def test_wire_control_frame_roundtrip():
    a, b = socket_pair()
    try:
        payload = {"op": "ping", "n": 7, "arr": list(range(100))}
        sent = wire.send_obj(a, payload)
        received, nbytes = wire.read_obj(b, deadline=time.monotonic() + 5.0)
        assert received == payload
        assert nbytes == sent > 0
    finally:
        a.close()
        b.close()


def test_wire_raw_frames_chunked_roundtrip(monkeypatch):
    monkeypatch.setattr(wire, "CHUNK_BYTES", 64)
    a, b = socket_pair()
    try:
        payload = bytes(range(256)) * 4  # 1024 bytes -> 16 chunks
        done = threading.Thread(target=wire.send_raw, args=(a, payload))
        done.start()
        dest = bytearray(len(payload))
        wire.read_raw_into(b, dest, len(payload),
                           deadline=time.monotonic() + 5.0)
        done.join()
        assert bytes(dest) == payload
    finally:
        a.close()
        b.close()


def test_wire_rejects_bad_magic_and_version():
    a, b = socket_pair()
    try:
        a.sendall(b"XXXX" + bytes(12))
        with pytest.raises(wire.WireError, match="magic"):
            wire.read_frame(b, deadline=time.monotonic() + 5.0)
    finally:
        a.close()
        b.close()
    a, b = socket_pair()
    try:
        header = wire._HEADER.pack(b"RPRW", wire.PROTOCOL_VERSION + 9, 0, 0)
        a.sendall(header)
        with pytest.raises(wire.VersionMismatch):
            wire.read_frame(b, deadline=time.monotonic() + 5.0)
    finally:
        a.close()
        b.close()


def test_wire_read_deadline_fires():
    a, b = socket_pair()
    try:
        with pytest.raises(wire.WireTimeout):
            wire.read_frame(b, deadline=time.monotonic() + 0.2)
    finally:
        a.close()
        b.close()


def test_parse_remote_workers():
    assert parse_remote_workers("") == ()
    assert parse_remote_workers("a:1, b:2") == (("a", 1), ("b", 2))
    with pytest.raises(ValueError, match="host:port"):
        parse_remote_workers("nonsense")
    with pytest.raises(ValueError, match="host:port"):
        parse_remote_workers("host:")


# --------------------------------------------------------------------------- #
# Offload and bit-identity (both data planes)
# --------------------------------------------------------------------------- #
def test_remote_without_fleet_declines_silently(monkeypatch):
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    engine, table, prepared = remote_prepared(4)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame, "no fleet")
        stats = backend_stats(engine)
        assert stats["offloaded_ops"] == 0
        assert stats["remote_fallbacks"] == 0
        assert stats["worker_count"] == 0
    finally:
        engine.close()


@pytest.mark.parametrize("shards", [2, 7, 32])
def test_remote_shm_plane_matches_cold(fleet, shards):
    engine, table, prepared = remote_prepared(shards,
                                              cond=pipeline_condition())
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                f"shm {shards} shards")
        stats = backend_stats(engine)
        assert stats["pipeline_ops"] >= 1
        assert stats["remote_fallbacks"] == 0
        # Co-located servers attach the published blocks: no column ever
        # crosses the socket in either direction.
        assert stats["column_bytes"] == 0
        assert stats["remote_published_bytes"] == 0
        assert stats["worker_count"] == 2
        assert stats["workers_alive"] == 2
    finally:
        engine.close()


def test_remote_stream_plane_matches_cold(monkeypatch):
    """--no-shm servers get columns streamed once, results fetched back.

    The results land in a local buffer on the coordinator, which the
    caches then keep as read-only views: no copy and no shared-memory
    block (the stream plane's twin of the shared-memory adoption test).
    """
    servers = [RemoteWorkerServer(allow_shm=False).start(),
               RemoteWorkerServer(allow_shm=False).start()]
    monkeypatch.setenv(
        ENV_WORKERS, ",".join(server.endpoint for server in servers))
    before = deleted_shm_mappings()
    engine, table, prepared = remote_prepared(4, cond=pipeline_condition())
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame, "stream")
        stats = backend_stats(engine)
        assert stats["pipeline_ops"] >= 1
        assert stats["remote_fallbacks"] == 0
        assert stats["remote_published_bytes"] > 0
        assert stats["column_bytes"] > 0
        owner = assert_columns_adopted(node_columns(prepared))
        assert isinstance(owner, bytearray)
        assert deleted_shm_mappings() == before
    finally:
        engine.close()
        for server in servers:
            server.stop()


def test_remote_micro_moves_keep_offloading(fleet):
    engine, table, prepared = remote_prepared(4, cond=pipeline_condition())
    try:
        prepared.execute()
        published = backend_stats(engine)["remote_published_bytes"]
        for value in (4.0, 4.5, 3.0):
            prepared.condition.children[0].predicate.value = value
            frame = prepared.execute()
            assert_frames_identical(cold_frame(table, prepared), frame,
                                    f"move {value}")
        stats = backend_stats(engine)
        assert stats["remote_fallbacks"] == 0
        # Publish-once over TCP: micro-moves never re-ship columns.
        assert stats["remote_published_bytes"] == published
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------------- #
def test_server_killed_between_events_falls_back(fleet):
    engine, table, prepared = remote_prepared(4)
    try:
        prepared.execute()
        assert backend_stats(engine)["remote_fallbacks"] == 0
        fleet[0].stop()
        # A cold open consults the backend (a warm event never does).
        with use_trace(Trace("event", trace_id=1)) as trace:
            reopened, frame = cold_open(engine, table, "row2")
        assert_frames_identical(cold_frame(table, reopened), frame,
                                "after kill")
        assert offload_fault(trace) == "transport:closed"
        stats = backend_stats(engine)
        assert stats["remote_fallbacks"] >= 1
        assert stats["workers_alive"] == 1
        assert stats["worker_count"] == 2
    finally:
        engine.close()


def test_cooling_fleet_declines_as_no_endpoint(fleet, monkeypatch):
    """Every endpoint down and cooling: declined, and nothing new broke."""
    monkeypatch.setenv(ENV_WORKERS, fleet[0].endpoint)
    engine, table, prepared = remote_prepared(4)
    try:
        prepared.execute()
        fleet[0].stop()
        cold_open(engine, table, "row2")  # the fault marks it down
        faulted = backend_stats(engine)
        assert faulted["worker_restarts"] == 1
        with use_trace(Trace("event", trace_id=1)) as trace:
            reopened, frame = cold_open(engine, table, "row4")
        assert_frames_identical(cold_frame(table, reopened), frame,
                                "every endpoint cooling")
        assert offload_fault(trace) == "no-endpoint"
        stats = backend_stats(engine)
        assert stats["remote_fallbacks"] == faulted["remote_fallbacks"] + 1
        assert stats["worker_restarts"] == faulted["worker_restarts"]
    finally:
        engine.close()


def test_connection_reset_mid_pipeline_falls_back(fleet):
    """A reset between session rounds aborts the session, never the answer."""
    engine, table, prepared = remote_prepared(4, cond=pipeline_condition())
    try:
        fleet[0].stall_ops.add("pipeline_level")
        # While the client blocks on the stalled round reply, reset every
        # connection: the recv fails mid-session.
        killer = threading.Timer(0.5, fleet[0].drop_connections)
        killer.start()
        try:
            frame = prepared.execute()
        finally:
            killer.cancel()
            fleet[0].stall_ops.clear()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "reset mid-session")
        stats = backend_stats(engine)
        assert stats["remote_fallbacks"] >= 1
        assert stats["pipeline_fallbacks"] >= 1
        assert stats["workers_alive"] == 1
    finally:
        engine.close()


def test_read_timeout_mid_broadcast_falls_back(fleet, monkeypatch):
    monkeypatch.setattr(RemoteBackend, "op_timeout", 1.0)
    engine, table, prepared = remote_prepared(4, cond=pipeline_condition())
    try:
        fleet[1].stall_ops.add("pipeline_start")
        with use_trace(Trace("event", trace_id=1)) as trace:
            frame = prepared.execute()
        fleet[1].stall_ops.clear()
        assert_frames_identical(cold_frame(table, prepared), frame, "timeout")
        assert offload_fault(trace) == "transport:timeout"
        stats = backend_stats(engine)
        assert stats["remote_fallbacks"] >= 1
        assert stats["workers_alive"] == 1
    finally:
        engine.close()


def test_wrong_version_server_falls_back(monkeypatch):
    server = RemoteWorkerServer(protocol_version=wire.PROTOCOL_VERSION + 1)
    server.start()
    monkeypatch.setenv(ENV_WORKERS, server.endpoint)
    engine, table, prepared = remote_prepared(4)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "version mismatch")
        stats = backend_stats(engine)
        assert stats["remote_fallbacks"] >= 1
        assert stats["workers_alive"] == 0
        assert stats["offloaded_ops"] == 0
    finally:
        engine.close()
        server.stop()


def test_endpoint_dropped_from_env_between_events(fleet, monkeypatch):
    """Shrinking the fleet mid-flight is a reconfiguration, not a fault."""
    engine, table, prepared = remote_prepared(4)
    try:
        prepared.execute()
        assert backend_stats(engine)["worker_count"] == 2
        monkeypatch.setenv(ENV_WORKERS, fleet[1].endpoint)
        reopened, frame = cold_open(engine, table, "row2")
        assert_frames_identical(cold_frame(table, reopened), frame,
                                "fleet shrunk")
        stats = backend_stats(engine)
        assert stats["pipeline_ops"] == 2
        assert stats["worker_count"] == 1
        assert stats["workers_alive"] == 1
        assert stats["remote_fallbacks"] == 0
    finally:
        engine.close()


def test_dead_connection_detected_and_replaced(fleet, monkeypatch):
    """A dead pooled connection costs a reconnect, not a fallback."""
    monkeypatch.setattr(RemoteBackend, "heartbeat_interval", 0.0)
    engine, table, prepared = remote_prepared(4)
    try:
        prepared.execute()
        for server in fleet:
            server.drop_connections()
        reopened, frame = cold_open(engine, table, "row2")
        assert_frames_identical(cold_frame(table, reopened), frame,
                                "reconnected")
        stats = backend_stats(engine)
        assert stats["endpoint_reconnects"] >= 1
        assert stats["remote_fallbacks"] == 0
        assert stats["workers_alive"] == 2
    finally:
        engine.close()


def test_server_side_eviction_triggers_reattach(fleet):
    """An evicted publication is re-attached and the op retried, once."""
    engine, table, prepared = remote_prepared(4)
    try:
        prepared.execute()
        before = backend_stats(engine)["remote_fallbacks"]
        for server in fleet:
            server._store.clear()
        reopened, frame = cold_open(engine, table, "row2")
        assert_frames_identical(cold_frame(table, reopened), frame,
                                "re-attached")
        stats = backend_stats(engine)
        assert stats["pipeline_ops"] == 2
        assert stats["remote_fallbacks"] == before
        assert stats["workers_alive"] == 2
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Standalone entrypoint
# --------------------------------------------------------------------------- #
def test_standalone_server_subprocess(monkeypatch, tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.backend.remote.server",
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        endpoint = line.rsplit(" ", 1)[-1].strip()
        monkeypatch.setenv(ENV_WORKERS, endpoint)
        engine, table, prepared = remote_prepared(4)
        try:
            frame = prepared.execute()
            assert_frames_identical(cold_frame(table, prepared), frame,
                                    "standalone server")
            stats = backend_stats(engine)
            assert stats["offloaded_ops"] >= 1
            assert stats["remote_fallbacks"] == 0
        finally:
            engine.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
