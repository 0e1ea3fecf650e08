"""Whole-pipeline offload tests for the process backend.

Covers the ``shard_pipeline`` protocol end to end (offload fires, replies
are partials-only, output is bit-identical to the cold in-process run),
the fault paths it leans on (broken-pool detection after a partial
broadcast failure, deferred shm eviction while a publication is pinned),
and fault injection against the pipeline op itself: a worker killed
mid-session, unpicklable plan state, and shm eviction pressure racing an
offload -- each must degrade to a bit-identical in-process run.
"""

import os
import signal

import numpy as np
import pytest

import repro.backend.process as proc
from repro import PipelineConfig, Query, QueryEngine, condition
from repro.backend.process import WorkerOpError, WorkerPoolError, _WorkerPool
from repro.backend.shm import ShmColumnStore
from repro.query import AndNode, OrNode, PredicateLeaf
from repro.query.predicates import StringMatchPredicate

from test_backend import (
    _UnpicklablePredicate,
    assert_frames_identical,
    cold_frame,
    make_table,
    wait_until,
)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def pipeline_condition(string_predicate=None, threshold=5.0):
    """A plan the pipeline op accepts whole: no range leaves anywhere.

    A range leaf whose site has an entry patches in-process instead, so
    a tree of attribute-threshold and string leaves is the shape that
    offloads leaf -> normalize -> combine -> mask end to end.
    """
    leaf = PredicateLeaf(string_predicate or StringMatchPredicate("s", "row3"))
    return AndNode([
        condition("a", "<", threshold),
        OrNode([condition("b", ">=", 3.0), leaf]),
    ])


def build_pipeline_prepared(shards=4, *, table=None, cond=None, max_workers=2):
    table = table if table is not None else make_table()
    config = PipelineConfig(shard_count=shards, max_workers=max_workers,
                            backend="process", percentage=0.4)
    engine = QueryEngine(table, config)
    query = Query(name="pipeline-test", tables=[table.name],
                  condition=cond if cond is not None else pipeline_condition())
    return engine, table, engine.prepare(query)


# --------------------------------------------------------------------------- #
# Offload and bit-identity
# --------------------------------------------------------------------------- #
def test_pipeline_offload_fires_and_matches_cold():
    engine, table, prepared = build_pipeline_prepared(4)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame, "cold")
        stats = engine.stats()["backend"]
        assert stats["pipeline_ops"] >= 1
        assert stats["pipeline_fallbacks"] == 0
        assert stats["reply_bytes"] > 0
        # Replies carry partials and summaries, never columns: far
        # below one node's worth of column bytes even for a whole plan.
        assert stats["reply_bytes"] < len(table) * 8

        # Interior micro-moves keep offloading through the pipeline op.
        before = stats["pipeline_ops"]
        for value in (4.0, 4.5, 3.0):
            prepared.condition.children[0].predicate.value = value
            frame = prepared.execute()
            assert_frames_identical(cold_frame(table, prepared), frame,
                                    f"threshold {value}")
        after = engine.stats()["backend"]
        assert after["pipeline_ops"] > before
        assert after["pipeline_fallbacks"] == 0
    finally:
        engine.close()


def test_pipeline_offload_matches_cold_many_shards():
    engine, table, prepared = build_pipeline_prepared(32)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "cold 32 shards")
        assert engine.stats()["backend"]["pipeline_ops"] >= 1
    finally:
        engine.close()


def test_range_leaves_offload_cold_then_decline_warm():
    """Cold range plans ship with the pipeline; warm ones decline it.

    Eligibility is a property of the *site*.  A first execution has no
    slice entry, so the leaf recomputes from scratch either way -- it
    offloads with the rest of the plan and leaves the entry behind.  Once
    the attribute has sorted shard indexes (what the engine builds for a
    hot slider attribute), a micro-move patches O(changed rows) from that
    entry in-process and the plan declines the offload.  A second prepared
    query on the same engine has no entry of its own, so its open offloads
    whatever its peer dragged earlier.
    """
    from repro import between

    def pipeline_ops():
        return engine.stats()["backend"]["pipeline_ops"]

    def check(prepared, context):
        assert_frames_identical(cold_frame(table, prepared),
                                prepared.execute(), context)

    cond = AndNode([between("a", -5.0, 15.0), condition("b", ">=", 3.0)])
    engine, table, prepared = build_pipeline_prepared(4, cond=cond)
    try:
        check(prepared, "cold range plan")
        assert pipeline_ops() == 1

        engine.ensure_range_index(table, "a", shard_count=4)
        prepared.condition.children[0].predicate.low = -4.0
        check(prepared, "warm range plan")
        assert pipeline_ops() == 1

        late = engine.prepare(Query(
            name="pipeline-late", tables=[table.name],
            condition=AndNode([between("a", -3.0, 12.0),
                               condition("b", ">=", 2.0)])))
        check(late, "late open after a peer's drag")
        assert pipeline_ops() == 2
        late.condition.children[0].predicate.low = -2.5
        check(late, "late session's own micro-move")
        assert pipeline_ops() == 2
        prepared.condition.children[0].predicate.low = -3.5
        check(prepared, "first session's next micro-move")
        assert pipeline_ops() == 2
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# Satellite: broken-pool detection (pipe misalignment on partial failure)
# --------------------------------------------------------------------------- #
def test_partial_broadcast_failure_marks_pool_broken_and_refuses_reuse():
    """A broadcast that fails between send and recv poisons the pipes.

    Worker 0 is healthy and has a reply queued by the time the send to
    the killed worker 1 raises; reusing the pool would pair the *next*
    request with that stale reply and return wrong data.  The pool must
    mark itself broken, refuse every further broadcast, and be replaced
    by ``_get_pool``.
    """
    pool = _WorkerPool(2)
    replacement = None
    try:
        replies, _, _ = pool.broadcast([{"op": "ping"}] * 2, timeout=30.0)
        assert [r["ok"] for r in replies] == [True, True]

        victim = pool.workers[1][0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert not victim.is_alive()

        # Send to worker 0 succeeds (its reply queues); send to the dead
        # worker 1 raises mid-loop -> transport failure, pool broken.
        with pytest.raises(WorkerPoolError):
            pool.broadcast([{"op": "ping"}] * 2, timeout=30.0)
        assert pool.broken

        # A broken pool refuses instantly, before touching any pipe --
        # worker 0 still holds its unread reply and must never serve
        # another request/reply pair.
        with pytest.raises(WorkerPoolError, match="broken"):
            pool.broadcast([{"op": "ping"}] * 2, timeout=30.0)

        # _get_pool discards the broken pool and respawns a fresh one.
        with proc._STATE_LOCK:
            saved = proc._POOL
            proc._POOL = pool
        try:
            replacement = proc._get_pool(2)
            assert replacement is not pool
            assert not replacement.broken
            replies, _, _ = replacement.broadcast([{"op": "ping"}] * 2,
                                                  timeout=30.0)
            assert [r["ok"] for r in replies] == [True, True]
            assert pool.alive_count() == 0  # broken pool was terminated
        finally:
            with proc._STATE_LOCK:
                if proc._POOL is replacement:
                    proc._POOL = saved
    finally:
        pool.terminate()
        if replacement is not None:
            replacement.terminate()


def test_op_error_keeps_pool_aligned_and_usable():
    """A worker-side op failure is a clean reply: pipes stay aligned."""
    pool = _WorkerPool(2)
    try:
        with pytest.raises(WorkerOpError):
            pool.broadcast([{"op": "no-such-op"}] * 2, timeout=30.0)
        assert not pool.broken
        replies, _, _ = pool.broadcast([{"op": "ping"}] * 2, timeout=30.0)
        assert [r["ok"] for r in replies] == [True, True]
    finally:
        pool.terminate()


# --------------------------------------------------------------------------- #
# Satellite: shm eviction deferred while a broadcast holds a pin
# --------------------------------------------------------------------------- #
def test_shm_eviction_deferred_until_unpin():
    evicted = []
    store = ShmColumnStore(max_tables=1, on_evict=evicted.append)
    t1, t2 = make_table(seed=1), make_table(seed=2)
    try:
        p1 = store.publish(t1)
        store.pin(p1)

        # Publishing t2 evicts t1 from the LRU, but the pin defers the
        # unlink: blocks stay linked, workers are not told to drop.
        p2 = store.publish(t2)
        assert evicted == []
        assert not p1.closed
        stats = store.stats()
        assert stats["evict_deferred"] == 1
        assert stats["published_tables"] == 1  # t1 left the LRU already

        store.unpin(p1)
        assert evicted == [p1]
        assert p1.closed
        assert not p2.closed
    finally:
        store.close()


def test_shm_nested_pins_all_must_drop():
    evicted = []
    store = ShmColumnStore(max_tables=1, on_evict=evicted.append)
    t1, t2 = make_table(seed=3), make_table(seed=4)
    try:
        p1 = store.publish(t1)
        store.pin(p1)
        store.pin(p1)
        store.publish(t2)
        store.unpin(p1)
        assert evicted == [] and not p1.closed  # one pin still held
        store.unpin(p1)
        assert evicted == [p1] and p1.closed
    finally:
        store.close()


# --------------------------------------------------------------------------- #
# Fault injection against the pipeline op
# --------------------------------------------------------------------------- #
def test_pipeline_worker_killed_falls_back_bit_identical():
    engine, table, prepared = build_pipeline_prepared(4)
    try:
        prepared.execute()
        backend = engine.execution_backend("process")
        before = backend.stats()
        assert before["pipeline_ops"] >= 1
        pids = backend.worker_pids()

        os.kill(pids[0], signal.SIGKILL)
        assert wait_until(lambda: backend.stats()["workers_alive"] < 2), \
            "killed worker still reported alive"

        # The next event's pipeline session hits the dead pipe, aborts,
        # and the evaluator reruns in-process -- bit-identically.
        prepared.condition.children[0].predicate.value = 2.0
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "pipeline op against a killed worker")
        after = backend.stats()
        assert after["pipeline_fallbacks"] >= before["pipeline_fallbacks"] + 1
        assert after["worker_restarts"] >= before["worker_restarts"] + 1

        # The pool respawned lazily; later events offload again.
        prepared.condition.children[0].predicate.value = 6.0
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "pipeline op after respawn")
        assert backend.stats()["pipeline_ops"] > after["pipeline_ops"]
    finally:
        engine.close()


def test_pipeline_unpicklable_state_falls_back_without_restart():
    cond = pipeline_condition(
        string_predicate=_UnpicklablePredicate("s", "row3"))
    engine, table, prepared = build_pipeline_prepared(4, cond=cond)
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "unpicklable pipeline spec")
        stats = engine.stats()["backend"]
        assert stats["pipeline_fallbacks"] >= 1
        # Serialisation fails before anything is sent: the op's fault,
        # not the pool's -- no restart, pipes stay aligned.
        assert stats["worker_restarts"] == 0
        assert stats["workers_alive"] == stats["worker_count"] > 0
    finally:
        engine.close()


def test_pipeline_survives_eviction_pressure_racing_offload():
    """Offloads stay bit-identical while every publish evicts the rest.

    With the store capacity forced to one table, a second engine's
    publication evicts the first's publication while the first may still
    broadcast against it -- exactly the race the pin/deferred-unlink path
    exists for.
    """
    saved_max = proc._STORE._max_tables
    proc._STORE._max_tables = 1
    engine_a, table_a, prepared_a = build_pipeline_prepared(
        4, table=make_table(seed=11))
    engine_b, table_b, prepared_b = build_pipeline_prepared(
        4, table=make_table(seed=12))
    try:
        # Hold a pin on A's publication across B's publish, the way a
        # long pipeline session would, so B's eviction of A is deferred.
        published_a = proc._STORE.publish(table_a)
        proc._STORE.pin(published_a)
        try:
            assert_frames_identical(cold_frame(table_b, prepared_b),
                                    prepared_b.execute(), "B under pin")
            assert proc._STORE.stats()["evict_deferred"] >= 1
            assert not published_a.closed
        finally:
            proc._STORE.unpin(published_a)

        # Alternate events: each engine's op republishes its own table,
        # evicting the other's; every frame must stay bit-identical.
        for value in (4.0, 2.0):
            prepared_a.condition.children[0].predicate.value = value
            assert_frames_identical(cold_frame(table_a, prepared_a),
                                    prepared_a.execute(), f"A {value}")
            prepared_b.condition.children[0].predicate.value = value
            assert_frames_identical(cold_frame(table_b, prepared_b),
                                    prepared_b.execute(), f"B {value}")
    finally:
        proc._STORE._max_tables = saved_max
        engine_a.close()
        engine_b.close()


# --------------------------------------------------------------------------- #
# One coordinator, one op table: faults the pipe path used to mishandle
# --------------------------------------------------------------------------- #
class _RejectsPoisonedShard(StringMatchPredicate):
    """Picklable; raises in a worker whose shard holds the poisoned row.

    Only off the coordinator (``home_pid``), so the in-process fallback
    still answers.  With row 0 poisoned and shards dealt round-robin,
    exactly one worker rejects ``pipeline_start`` while its peers accept.
    """

    home_pid: int = 0

    def signed_distances(self, table):
        if os.getpid() != self.home_pid and \
                "poison" in table.column(self.attribute):
            raise RuntimeError("poisoned shard")
        return super().signed_distances(table)


def _poisoning(home_pid):
    predicate = _RejectsPoisonedShard("s", "row3")
    predicate.home_pid = home_pid
    return predicate


def test_rejected_pipeline_start_aborts_the_accepting_workers():
    """One worker rejecting the start round must not strand its peers.

    The peers accepted ``pipeline_start``: they hold a session and the
    output block mapped.  The coordinator unlinks that block on the way
    out, so without an abort round the mapping (rows x columns x nodes
    bytes) stays pinned in the workers until their next session.
    """
    table = make_table()
    table.column("s")[0] = "poison"
    engine, table, prepared = build_pipeline_prepared(
        4, table=table,
        cond=pipeline_condition(string_predicate=_poisoning(os.getpid())))
    try:
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "start rejected by one worker")
        backend = engine.execution_backend("process")
        stats = backend.stats()
        assert stats["pipeline_fallbacks"] == 1
        # The op's fault, not the pool's: same workers, still aligned.
        assert stats["worker_restarts"] == 0
        assert stats["workers_alive"] == stats["worker_count"] == 2

        pool = proc._get_pool(2)
        replies, _, _ = pool.broadcast([{"op": "ping"}] * 2, timeout=30.0)
        assert [r["session"] for r in replies] == [None, None]
        if os.path.isdir("/proc/self"):
            for pid in backend.worker_pids():
                with open(f"/proc/{pid}/maps") as maps:
                    stale = [line for line in maps if "(deleted)" in line
                             and "/dev/shm/" in line]
                assert not stale, f"worker {pid} kept an unlinked block"

        # Every worker answers a fresh session cleanly.
        clean_engine, clean_table, clean = build_pipeline_prepared(4)
        try:
            assert_frames_identical(cold_frame(clean_table, clean),
                                    clean.execute(), "fresh session")
            assert clean_engine.stats()["backend"]["pipeline_ops"] == 1
        finally:
            clean_engine.close()
    finally:
        engine.close()


def test_table_dropped_behind_the_coordinator_is_reattached():
    """A pipe worker names an unattached table with ``unknown-table``.

    The pool's ``attached`` cache still lists the publication, so the op
    goes out without an attach; the worker's coded rejection makes the
    coordinator re-attach and retry once -- no fallback, same as the
    socket transport.
    """
    engine, table, prepared = build_pipeline_prepared(4)
    try:
        prepared.execute()
        key = proc._STORE.publish(table).key
        pool = proc._get_pool(2)
        assert key in pool.attached
        pool.broadcast([{"op": "drop", "table_id": key}] * 2, timeout=30.0)
        with pytest.raises(WorkerOpError) as rejected:
            pool.broadcast([{"op": "pipeline_start", "table_id": key}] * 2,
                           timeout=30.0)
        assert rejected.value.code == "unknown-table"

        before = engine.stats()["backend"]
        prepared.condition.children[0].predicate.value = 2.0
        frame = prepared.execute()
        assert_frames_identical(cold_frame(table, prepared), frame,
                                "re-attached after a worker-side drop")
        after = engine.stats()["backend"]
        assert after["pipeline_ops"] == before["pipeline_ops"] + 1
        assert after["fallbacks"] == before["fallbacks"]
        assert after["worker_restarts"] == before["worker_restarts"]
    finally:
        engine.close()
