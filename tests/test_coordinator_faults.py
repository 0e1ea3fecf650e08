"""The coordinator against a fake in-memory transport.

:class:`FakeTransport` is the second consumer of the
:class:`repro.backend.coordinator.Transport` interface: it runs the real
worker op table (:class:`repro.backend.worker.WorkerOps`) in-thread, one
instance per lane, with no process and no socket.  That makes every
round boundary of an offloaded op addressable from a test -- attach, the
start round, each level round, finish, and (on the stream plane) fetch
and release -- so a fault of either kind can be injected at each one and
the coordinator's obligations checked exactly:

* the op declines, says why (``backend_fault``), and the frame is still
  bit-identical to a cold run;
* ``abort`` is issued iff a start round was sent, and is the event's last
  transport call: the in-process fallback never goes back to the lanes,
  so a broken pool is respawned by the *next* cold event, not this one;
* the output buffer is closed and unlinked, the publication unpinned;
* ``fallbacks`` / ``pipeline_fallbacks`` / ``worker_restarts`` move as
  ``docs/backends.md`` says.
"""

import math
from contextlib import contextmanager
from multiprocessing import shared_memory

import pytest

from repro import (
    PipelineConfig,
    Query,
    QueryEngine,
    register_backend,
    unregister_backend,
)
from repro.backend.coordinator import (
    Coordinator,
    OutputBuffer,
    WorkerOpError,
    WorkerPoolError,
    raise_rejected,
    serialise,
)
from repro.backend.shm import ShmColumnStore
from repro.backend.worker import WorkerOps, _TableEntry
from repro.obs.trace import Trace, use_trace
from repro.storage.lru import LRUStore

from census import module_census
from test_backend import assert_frames_identical, cold_frame, make_table
from test_backend_pipeline import pipeline_condition


@pytest.fixture(scope="module", autouse=True)
def _census():
    """Nothing this module starts may outlive it (``tests/census.py``)."""
    yield from module_census()


def attached_tables():
    """An unbounded attached-table store, as a spawned local lane has."""
    return LRUStore(math.inf, on_evict=_TableEntry.close)


class FakeTransport:
    """Lanes are in-thread op tables; faults are injected by op name.

    ``fault = (op, occurrence, kind)`` fires on the ``occurrence``-th
    round carrying ``op``: kind ``"op"`` makes lane 1 reject it (every
    lane still answers), kind ``"transport"`` loses lane 1's reply after
    lane 0 already served its message -- the misaligned case.
    """

    def __init__(self, lanes=2, allow_shm=True, fault=None):
        self.allow_shm = allow_shm
        self.fault = fault
        self.lane_names = [f"fake{i}" for i in range(lanes)]
        self.rounds: list[str] = []      # op of every round, in order
        self.aborts: list[str] = []      # tokens passed to abort()
        self.buffers: list[OutputBuffer] = []
        self.restarts = 0
        self.broken = False
        self._spawn()

    def _spawn(self):
        self.lanes = [WorkerOps(attached_tables(),
                                allow_shm=self.allow_shm)
                      for _ in self.lane_names]
        self.attached: set[str] = set()
        self.broken = False

    # -- Transport ------------------------------------------------------- #
    @contextmanager
    def session(self, width):
        if self.broken:  # the next op's respawn of a killed local worker
            self.restarts += 1
            self._spawn()
        yield min(len(self.lanes), width)

    def attach(self, published, timeout, refresh=False):
        if published.key in self.attached and not refresh:
            return 0
        manifest = published.manifest
        msg = {"op": "attach", "manifest": manifest}
        replies, out, in_ = self.round([msg] * len(self.lanes), timeout)
        for ops, reply in zip(self.lanes, replies):
            if reply["mode"] == "stream" and not reply.get("have"):
                # The socket transport streams raw frames here.
                ops.uploads[published.key] = {
                    spec["name"]: bytearray(block.buf)
                    for spec, block in zip(manifest["columns"],
                                           published.blocks)}
                raise_rejected([ops.dispatch(
                    {"op": "attach_done", "manifest": manifest})])
        self.attached.add(published.key)
        return out + in_

    def output_buffer(self, nbytes):
        buffer = OutputBuffer(nbytes, [self.allow_shm] * len(self.lanes))
        self.buffers.append(buffer)
        return buffer

    def round(self, messages, timeout):
        bodies = serialise(messages)
        op = next(m["op"] for m in messages if m is not None)
        self.rounds.append(op)
        kind = None
        if self.fault is not None and self.fault[0] == op:
            seen = self.rounds.count(op)
            if seen == self.fault[1]:
                kind = self.fault[2]
        replies = []
        for lane, (ops, msg) in enumerate(zip(self.lanes, messages)):
            if msg is None:
                replies.append(None)
            elif kind is not None and lane == 1:
                if kind == "transport":
                    self.broken = True
                    raise WorkerPoolError("injected: lane 1 went away",
                                          "closed")
                replies.append({"ok": False, "error": "injected rejection"})
            else:
                replies.append(ops.dispatch(msg))
        raise_rejected(replies)
        return replies, sum(len(b) for b in bodies if b), 64 * len(replies)

    def abort(self, token, timeout):
        self.aborts.append(token)
        if self.broken:
            return
        for ops in self.lanes:
            ops.dispatch({"op": "pipeline_abort", "token": token})


class FakeBackend(Coordinator):
    name = "tb-fake"
    store = ShmColumnStore()
    transport: FakeTransport  # set per test, before the engine is built

    def _open_transport(self):
        return self.transport

    def _gauges(self):
        return {"worker_count": len(self.transport.lanes),
                "workers_alive": len(self.transport.lanes)}


@pytest.fixture
def fake_backend():
    register_backend("tb-fake", FakeBackend)
    yield FakeBackend
    unregister_backend("tb-fake")
    FakeBackend.store.close()
    transport = getattr(FakeBackend, "transport", None)
    for ops in transport.lanes if transport else ():
        ops.store.clear()  # the lanes' mappings, for the census


def fake_prepared(transport):
    """An engine on ``transport`` with the pipeline-eligible plan prepared."""
    FakeBackend.transport = transport
    table = make_table()
    engine = QueryEngine(table, PipelineConfig(
        shard_count=4, max_workers=2, backend="tb-fake", percentage=0.4))
    return engine, table, cold_query(engine, table, 5.0)


def cold_query(engine, table, threshold):
    """A prepared query no cache can serve: its first execute is offered."""
    return engine.prepare(Query(
        name=f"fake-transport-{threshold}", tables=[table.name],
        condition=pipeline_condition(threshold=threshold)))


def run_pipeline_event(transport):
    """One cold execute over ``transport``; returns the backend stats."""
    engine, table, prepared = fake_prepared(transport)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                f"fault {transport.fault}")
        return engine.stats()["backend"]
    finally:
        engine.close()


def assert_buffers_released(transport):
    for buffer in transport.buffers:
        assert buffer.buf is None, "output buffer left open"
        for name in set(buffer.names) - {None}:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
    assert FakeBackend.store.tables.pinned == 0, "publication left pinned"


# The plan has three levels (leaves, the OR, the AND): a session is one
# start round, two level rounds and the finish round.
SHM_ROUNDS = ["pipeline_start", "pipeline_level", "pipeline_level",
              "pipeline_finish"]


@pytest.mark.parametrize("allow_shm", [True, False], ids=["shm", "stream"])
def test_clean_session_round_count(fake_backend, allow_shm):
    """1 start + one round per level; fetch/release only when streaming."""
    transport = FakeTransport(allow_shm=allow_shm)
    stats = run_pipeline_event(transport)
    assert stats["pipeline_ops"] == 1
    assert stats["fallbacks"] == stats["pipeline_fallbacks"] == 0
    assert transport.aborts == []
    session = [op for op in transport.rounds if op.startswith("pipeline")]
    if allow_shm:
        assert session == SHM_ROUNDS
        assert stats["column_bytes"] == 0
    else:
        # Fetches interleave (a direct-path bounds partition reads the raw
        # column between rounds) but each column crosses exactly once:
        # 5 nodes x (raw, normalized, mask) + the 3 leaves' signed.
        assert session.count("pipeline_fetch") == 5 * 3 + 3
        assert [op for op in session if op != "pipeline_fetch"] == \
            SHM_ROUNDS + ["pipeline_release"]
        assert stats["column_bytes"] == len(make_table()) * (
            8 * 5 * 2 + 5 + 8 * 3)
    assert all(ops.session is None for ops in transport.lanes)
    assert_buffers_released(transport)


BOUNDARIES = [
    ("attach", 1),
    ("pipeline_start", 1),
    ("pipeline_level", 1),
    ("pipeline_level", 2),
    ("pipeline_finish", 1),
    ("pipeline_fetch", 1),
    ("pipeline_fetch", 7),
    ("pipeline_release", 1),
]


@pytest.mark.parametrize("kind", ["op", "transport"])
@pytest.mark.parametrize("op,occurrence", BOUNDARIES)
def test_fault_at_every_round_boundary(fake_backend, op, occurrence, kind):
    # Fetch and release rounds exist only on the stream plane; the other
    # boundaries run on the shared-memory plane, the common deployment.
    streaming = op in ("pipeline_fetch", "pipeline_release")
    transport = FakeTransport(allow_shm=not streaming,
                              fault=(op, occurrence, kind))
    engine, table, prepared = fake_prepared(transport)
    try:
        trace = Trace("event", trace_id=1)
        with use_trace(trace):
            frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                f"fault {transport.fault}")
        stats = engine.stats()["backend"]

        # The pipeline op declined, exactly once, and said why; the frame
        # came from the in-process path.
        assert stats["pipeline_ops"] == stats["offloaded_ops"] == 0
        assert stats["pipeline_fallbacks"] == stats["fallbacks"] == 1
        (offload,) = trace.find("pipeline.offload")
        assert offload.attrs["accepted"] is False
        assert offload.attrs["backend_fault"] == (
            "transport:closed" if kind == "transport" else "op-rejected")
        assert "offload_declined" not in offload.attrs
        # worker_restarts counts transport faults only: an op rejection
        # leaves every lane aligned and in service.
        assert stats["worker_restarts"] == (1 if kind == "transport" else 0)

        # The faulted round was the event's last transport call: the
        # fallback walk finished in-process and respawned nothing.
        assert transport.rounds[-1] == op
        assert transport.rounds.count(op) == occurrence
        assert transport.restarts == 0

        # abort iff a start round was sent (a rejected start still counts:
        # lane 0 accepted it and holds a session).
        start_sent = "pipeline_start" in transport.rounds
        assert start_sent == (op != "attach")
        assert len(transport.aborts) == (1 if start_sent else 0)
        # Rejected ops keep their lanes, so the abort must have cleared
        # them; lanes behind a transport fault are gone with their pool.
        assert kind == "transport" or all(
            ops.session is None for ops in transport.lanes)
        assert_buffers_released(transport)

        # The next cold event on the same backend is the one that pays the
        # respawn (after a transport fault), once, and is accepted.
        transport.fault = None
        second = cold_query(engine, table, 4.0)
        assert_frames_identical(cold_frame(table, second), second.execute(),
                                "cold event after the fault")
        stats = engine.stats()["backend"]
        assert transport.restarts == (1 if kind == "transport" else 0)
        assert stats["pipeline_ops"] == 1
        assert stats["pipeline_fallbacks"] == 1
        assert all(ops.session is None for ops in transport.lanes)
        assert_buffers_released(transport)
    finally:
        engine.close()


def test_unknown_table_is_reattached_and_retried_once(fake_backend):
    """A lane that lost the table costs one retry, not a fallback."""
    transport = FakeTransport()
    engine, table, prepared = fake_prepared(transport)
    try:
        prepared.execute()
        key = FakeBackend.store.publish(table).key
        transport.lanes[1].store.pop(key)  # behind the coordinator's back

        prepared.condition.children[0].predicate.value = 2.0
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame, "retry")
        stats = engine.stats()["backend"]
        assert stats["pipeline_ops"] == 2
        assert stats["fallbacks"] == 0
        # The rejected first attempt had sent its start round: aborted.
        assert len(transport.aborts) == 1
        assert transport.rounds.count("attach") == 2
        assert_buffers_released(transport)
    finally:
        engine.close()


def test_unserialisable_op_is_rejected_before_any_lane_sees_it(fake_backend):
    transport = FakeTransport()
    with pytest.raises(WorkerOpError, match="serialise") as rejected:
        transport.round([{"op": "ping", "bad": lambda: None}] * 2, 1.0)
    assert rejected.value.fault == "unserialisable"
    assert transport.rounds == []


def test_retired_leaf_op_is_an_unknown_op():
    """The op table is the pipeline session and table housekeeping only."""
    ops = WorkerOps(attached_tables())
    reply = ops.dispatch({"op": "leaf", "table_id": "t", "kind": "mask",
                          "predicate": None, "spans": [], "out": None})
    assert reply == {"ok": False, "error": "unknown op 'leaf'"}
    assert len(WorkerOps._OPS) == 10
    # A coded rejection keeps its code in the fault it is traced under.
    with pytest.raises(WorkerOpError) as rejected:
        raise_rejected([ops.dispatch({"op": "pipeline_start",
                                      "table_id": "t"})])
    assert rejected.value.fault == "op-rejected:unknown-table"
