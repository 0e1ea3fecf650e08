"""Whole-pipeline offload tests for the process backend.

Covers the ``shard_pipeline`` protocol end to end (offload fires, replies
carry counting rows but no column data, every block it creates carries
this process's name prefix, every node's
counting rows are exact, output is bit-identical to the cold in-process
run),
the fault paths it leans on (misaligned lanes after a partial round
failure are closed and respawned, deferred shm eviction while a
publication is pinned),
and fault injection against the pipeline op itself: a worker killed
mid-session, unpicklable plan state, and shm eviction pressure racing an
offload -- each must degrade to a bit-identical in-process run.
"""

import gc
import mmap
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro import PipelineConfig, Query, QueryEngine, condition
from repro.backend import shutdown_all
from repro.backend.process import ProcessBackend, WorkerOpError, WorkerPoolError
from repro.backend.remote.client import STORE
from repro.backend.shm import ShmColumnStore
from repro.core.normalization import reduced_bounds
from repro.core.reduction import rank_counts
from repro.interact.events import SetPercentageDisplayed
from repro.query import AndNode, OrNode, PredicateLeaf
from repro.query.predicates import StringMatchPredicate
from repro.storage.table import Table

from census import module_census, shm_blocks
from test_backend import (
    _UnpicklablePredicate,
    assert_frames_identical,
    cold_frame,
    make_table,
    wait_until,
)


@pytest.fixture(scope="module", autouse=True)
def _census():
    """Nothing this module starts may outlive it (``tests/census.py``)."""
    yield from module_census()


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


@contextmanager
def local_lanes(backend, width=2):
    """Pin the local fleet's first ``width`` lanes, the way one op does."""
    fleet = backend._open_transport()
    with fleet.session(width) as lanes:
        assert lanes == width
        yield fleet


def ping(fleet):
    replies, _, _ = fleet.round([{"op": "ping"}] * len(fleet.pairs),
                                timeout=30.0)
    return replies


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
        # Replies carry per-shard counting rows only, never columns: far
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


# --------------------------------------------------------------------------- #
# The output block is adopted, not copied
# --------------------------------------------------------------------------- #
def deleted_shm_mappings() -> set[str]:
    """Unlinked shared-memory blocks this process still maps."""
    with open("/proc/self/maps") as maps:
        return {line.split()[-2] for line in maps
                if "/dev/shm/" in line and line.rstrip().endswith("(deleted)")}


def node_columns(prepared) -> list[np.ndarray]:
    """Every node column an execute left in the query's site entries."""
    return [column for entry in prepared._root.sites.values()
            for column in (entry.columns.normalized, entry.columns.signed,
                           entry.columns.exact_mask, entry.columns.raw)
            if column is not None]


def memory_owner(column: np.ndarray):
    """The object whose memory ``column`` views (its bottom-most base)."""
    while isinstance(column.base, np.ndarray):
        column = column.base
    return column.base


def assert_columns_adopted(columns: list[np.ndarray]):
    """Each column is a read-only view and all view one buffer; returns it."""
    assert len(columns) >= 5
    for column in columns:
        assert not column.flags.owndata, "column copied out of the buffer"
        assert not column.flags.writeable
    owners = {id(memory_owner(column)) for column in columns}
    assert len(owners) == 1, "the op's columns view different buffers"
    return memory_owner(columns[0])


def output_blocks() -> dict[str, int]:
    """The shared store's output-block counters."""
    stats = STORE.stats()
    return {key: stats[f"output_blocks_{key}"] for key in ("created", "reused")}


def cold_open(engine, table, threshold, target="row3"):
    """A prepared query with new constants, executed cold; its frame must
    equal the in-process cold run's."""
    prepared = engine.prepare(Query(
        name=f"recycle-{threshold}-{target}", tables=[table.name],
        condition=pipeline_condition(StringMatchPredicate("s", target),
                                     threshold=threshold)))
    assert_frames_identical(cold_frame(table, prepared), prepared.execute(),
                            f"threshold {threshold}, {target}")
    return prepared


def drop_caches(engine, table) -> None:
    """Forget every cached column of ``table``, and collect the garbage."""
    engine.evaluation_cache(table).clear()
    gc.collect()


@pytest.mark.parametrize("shards", [4, 32])
def test_accepted_open_hands_its_output_block_to_the_caches(shards):
    """The coordinator copies no column out of the op's output block, and
    recycles the block only once nothing views it.

    Every node column of an accepted cold open is a read-only view of the
    block the workers wrote.  A view held from open 1 keeps its block
    out of the free slot, so open 2 writes another one; once that view
    is dropped, open 3 takes open 1's block back.  ``shutdown_all``
    leaves no block linked and, with the views gone, none mapped.
    """
    before = deleted_shm_mappings()
    engine, table, prepared = build_pipeline_prepared(shards)
    try:
        prepared.execute()
        owner = assert_columns_adopted(node_columns(prepared))
        assert isinstance(owner, mmap.mmap)
        held = node_columns(prepared)[0]
        del prepared
        drop_caches(engine, table)
        counts = output_blocks()

        second = cold_open(engine, table, 4.0, "row1")
        assert assert_columns_adopted(node_columns(second)) is not owner
        assert output_blocks() == {"created": counts["created"] + 1,
                                   "reused": counts["reused"]}

        del held
        gc.collect()
        third = cold_open(engine, table, 3.0, "row2")
        assert assert_columns_adopted(node_columns(third)) is owner
        assert output_blocks() == {"created": counts["created"] + 1,
                                   "reused": counts["reused"] + 1}
        stats = engine.stats()["backend"]
        assert stats["pipeline_ops"] == 3 and stats["fallbacks"] == 0
    finally:
        engine.close()
    del second, third, owner
    gc.collect()
    shutdown_all()
    assert not shm_blocks(), "a block outlived shutdown_all"
    assert not deleted_shm_mappings() - before, "mapping outlived its views"


@pytest.mark.parametrize("shards", [4, 32])
def test_recycled_block_carries_no_stale_byte(shards):
    """Open 2 writes every byte of open 1's recycled block.

    Both opens are compared with the in-process cold run: the frame, and
    every node column of every site (raw, normalized, mask and the
    leaves' signed distances), so a stale byte anywhere in the layout
    fails.  The second plan has other constants throughout, so no column
    of open 1 is right for open 2 by accident.
    """
    engine, table, _ = build_pipeline_prepared(shards)
    reference = QueryEngine(table, PipelineConfig(
        shard_count=shards, backend="threads", percentage=0.4))

    def check(threshold, target):
        got = node_columns(cold_open(engine, table, threshold, target))
        want = node_columns(cold_open(reference, table, threshold, target))
        assert len(got) == len(want)
        for column, expected in zip(got, want):
            assert np.array_equal(column, expected, equal_nan=True), threshold

    try:
        check(5.0, "row3")
        drop_caches(engine, table)
        reused = output_blocks()["reused"]
        check(-2.0, "row0")
        assert output_blocks()["reused"] == reused + 1
        assert engine.stats()["backend"]["fallbacks"] == 0
    finally:
        engine.close()
        reference.close()


def coordinator_bytes_per_row(monkeypatch, n: int,
                              percentage: float = 0.02) -> float:
    """Peak bytes the coordinator allocates inside one accepted
    ``shard_pipeline`` call, per row, for a 5-node plan over ``n`` rows.

    The second of two cold opens is measured, so the workers' spawn and
    the table's publication are not part of it.
    """
    peaks = []
    shard_pipeline = ProcessBackend.shard_pipeline

    def traced(self, sharded, spec):
        tracemalloc.start()
        try:
            return shard_pipeline(self, sharded, spec)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(ProcessBackend, "shard_pipeline", traced)
    rng = np.random.default_rng(5)
    table = Table("Alloc", {"a": rng.normal(0.0, 10.0, n),
                            "b": rng.normal(5.0, 3.0, n),
                            "c": rng.normal(0.0, 1.0, n)})
    engine = QueryEngine(table, PipelineConfig(
        shard_count=4, max_workers=2, backend="process",
        percentage=percentage))
    try:
        for a in (5.0, 4.0):
            cond = AndNode([condition("a", "<", a),
                            OrNode([condition("b", ">=", 3.0),
                                    condition("c", ">", 1.0)])])
            engine.prepare(Query(name=f"alloc-{a}", tables=[table.name],
                                 condition=cond)).execute()
        stats = engine.stats()["backend"]
        assert stats["pipeline_ops"] == 2 and stats["fallbacks"] == 0
    finally:
        engine.close()
        monkeypatch.undo()
    return peaks[-1] / n


def test_cold_offload_allocates_no_column_copy(monkeypatch):
    """Counted work: a cold offload allocates O(1) bytes per row on the
    coordinator, far below one float64 column, at n and 16n rows.

    The 5-node plan's columns (109 bytes a row) live in the output block
    and are adopted, never copied.  What remains is the bounds resolve's
    byte-wide masks.  Every leaf here has more exact answers than its keep
    count, so no resolve needs a partition.  At a 40 % display some do,
    and each adds a scratch copy of that node's raw column (8 bytes a row)
    -- only after the resolve has dropped its byte-wide finite mask.
    """
    assert coordinator_bytes_per_row(monkeypatch, 8_000) < 8
    assert coordinator_bytes_per_row(monkeypatch, 128_000) < 8
    assert coordinator_bytes_per_row(monkeypatch, 128_000, 0.4) <= 8.5


def heavy_tie_reply(n: int, target: int = 40) -> int:
    """One offloaded open of a tie-heavy plan over ``n`` rows, 4 shards.

    About 95 % of the rows are exact answers (distance 0), so the root
    threshold sits inside a tie block of ~0.95n rows.  Returns the reply
    bytes per op.
    """
    rng = np.random.default_rng(3)
    table = Table("Ties", {"a": rng.uniform(0.0, 100.0, n),
                           "b": rng.uniform(0.0, 100.0, n)})
    cond = AndNode([condition("a", "<", 97.5), condition("b", "<", 97.5)])
    engine, table, prepared = build_pipeline_prepared(4, table=table, cond=cond)
    try:
        frame = prepared.execute(changes=[SetPercentageDisplayed(target / n)])
        assert_frames_identical(cold_frame(table, prepared), frame,
                                f"heavy ties, n={n}")
        assert frame.statistics.num_results >= 0.9 * n
        stats = engine.stats()["backend"]
        assert stats["pipeline_ops"] == 1 and stats["pipeline_fallbacks"] == 0
    finally:
        engine.close()
    return stats["reply_bytes"]


def test_worker_replies_are_bounded_under_heavy_ties():
    """A worker replies counting rows only, so the reply bytes of an op do
    not grow with the table: 16x the rows (and 16x the tied rows at the
    display threshold) reply the same bytes."""
    small_bytes = heavy_tie_reply(8_000)
    large_bytes = heavy_tie_reply(128_000)
    assert large_bytes <= small_bytes * 1.05


def test_every_block_an_op_creates_carries_the_process_prefix(monkeypatch):
    """The table's publication and the op's output block are named
    ``rp<pid>_...``, the prefix the backend census counts by."""
    from multiprocessing import shared_memory

    created = []
    init = shared_memory.SharedMemory.__init__

    def spy(self, name=None, create=False, size=0, *args, **kwargs):
        init(self, name, create, size, *args, **kwargs)
        if create:
            created.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", spy)
    engine, table, prepared = build_pipeline_prepared(4)
    try:
        prepared.execute()
        assert engine.stats()["backend"]["pipeline_ops"] == 1
    finally:
        engine.close()
    # Three published columns (two float, one object) and one output block.
    assert len(created) == 4
    assert all(name.startswith(f"rp{os.getpid()}_") and len(name) <= 31
               for name in created), created


def test_worker_counting_rows_are_exact_under_heavy_ties(monkeypatch):
    """Every node's counting rows from ``shard_pipeline`` are the exact
    per-shard :func:`rank_counts` rows against :func:`reduced_bounds` of
    the node's column, and equal the in-process ones.

    About 95 % of the rows tie at distance 0 and ``keep * shards`` is far
    below half the rows, so a per-shard summary holding only ``keep``
    values would undercount ``count(<= d_max)``.
    """
    n, shards, target = 8_000, 4, 40
    rng = np.random.default_rng(3)
    table = Table("Ties", {"a": rng.uniform(0.0, 100.0, n),
                           "b": rng.uniform(0.0, 100.0, n)})
    cond = AndNode([condition("a", "<", 97.5), condition("b", "<", 97.5)])
    results = []
    shard_pipeline = ProcessBackend.shard_pipeline

    def spy(self, sharded, spec):
        result = shard_pipeline(self, sharded, spec)
        results.append((sharded.bounds, spec, result))
        return result

    monkeypatch.setattr(ProcessBackend, "shard_pipeline", spy)
    sites = {}
    for backend in ("process", "threads"):
        config = PipelineConfig(shard_count=shards, max_workers=2,
                                backend=backend, percentage=target / n)
        engine = QueryEngine(table, config)
        try:
            prepared = engine.prepare(Query(name="ties", tables=[table.name],
                                            condition=cond))
            prepared.execute()
            sites[backend] = prepared._root.sites
            stats = engine.stats()["backend"]
            assert stats["pipeline_fallbacks"] == 0
            assert stats["pipeline_ops"] == (backend == "process")
        finally:
            engine.close()
    (bounds, spec, result), = results
    for node in spec["nodes"]:
        assert node["keep"] * shards <= n // 2
        data = result["nodes"][node["id"]]
        resolved = reduced_bounds(data["raw"], node["keep"])
        assert data["resolved"] == resolved
        np.testing.assert_array_equal(data["summaries"], [
            rank_counts(data["raw"][a:b], resolved or ()) for a, b in bounds])
    assert sites["process"].keys() == sites["threads"].keys()
    for path, entry in sites["process"].items():
        local = sites["threads"][path].columns.normalization
        offloaded = entry.columns.normalization
        assert (offloaded.params, offloaded.column_key, offloaded.value,
                offloaded.counts.pivots, offloaded.counts.count) == (
            local.params, local.column_key, local.value, local.counts.pivots,
            local.counts.count), path
        np.testing.assert_array_equal(offloaded.counts.rows, local.counts.rows,
                                      err_msg=str(path))


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
# Satellite: misaligned lanes after a partial round failure
# --------------------------------------------------------------------------- #
def test_partial_broadcast_failure_marks_pool_broken_and_refuses_reuse():
    """A round that fails between send and recv poisons every lane.

    Lane 0 is healthy and has a reply queued by the time the round hits
    the killed lane 1; reusing its connection would pair the *next*
    request with that stale reply and return wrong data.  Every pinned
    connection must be closed rather than pooled, and the next op must
    run on a fresh lane-1 server.
    """
    backend = ProcessBackend(max_workers=2)
    try:
        with local_lanes(backend) as fleet:
            assert [r["ok"] for r in ping(fleet)] == [True, True]
            pinned = [conn for _, conn in fleet.pairs]
            victim = fleet.endpoints[1].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()

            # Lane 0 is sent to (its reply queues), lane 1 is dead ->
            # transport failure, the session is misaligned.
            with pytest.raises(WorkerPoolError):
                ping(fleet)
            assert not fleet.aligned
        assert all(conn.sock.fileno() == -1 for conn in pinned)
        assert not any(endpoint.idle for endpoint in fleet.endpoints)

        # The next op respawns: lane 1 answers from a fresh pid.
        with local_lanes(backend) as fresh:
            replies = ping(fresh)
        assert [r["ok"] for r in replies] == [True, True]
        assert replies[1]["pid"] != victim.pid
        assert replies[1]["pid"] in backend.worker_pids()
    finally:
        backend.close()


def test_op_error_keeps_pool_aligned_and_usable():
    """A worker-side op failure is a clean reply: lanes stay aligned."""
    backend = ProcessBackend(max_workers=2)
    try:
        with local_lanes(backend) as fleet:
            pids = [r["pid"] for r in ping(fleet)]
            with pytest.raises(WorkerOpError):
                fleet.round([{"op": "no-such-op"}] * 2, timeout=30.0)
            assert fleet.aligned
            assert [r["pid"] for r in ping(fleet)] == pids
        with local_lanes(backend) as fleet:
            assert [r["pid"] for r in ping(fleet)] == pids
    finally:
        backend.close()


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


def test_output_block_slot_under_concurrent_take_and_give_back():
    """Eight threads on two cores take output blocks and give them back or
    forget them, as ops and dying views do, with a 1 us switch interval.

    No block is held by two takers at once, every take is counted once as
    created or reused, a size miss is never served, and ``close`` leaves
    none of the blocks linked.
    """
    store = ShmColumnStore()
    held: set[str] = set()
    seen: set[str] = set()
    errors: list[str] = []
    lock = threading.Lock()

    def run(seed):
        rng = random.Random(seed)
        for _ in range(200):
            size = rng.choice((4096, 8192))
            block = store.take_output_block(size)
            with lock:
                if block.name in held or block.size != size:
                    errors.append(block.name)
                held.add(block.name)
                seen.add(block.name)
            block.buf[0] = seed  # this taker's mark, checked after a yield
            time.sleep(0)
            with lock:
                if block.buf[0] != seed:
                    errors.append(block.name)
                held.discard(block.name)
            if rng.random() < 0.9:
                store.give_back_output_block(block)
            else:
                store.forget_output_block(block)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        store.close()
    assert not errors, errors
    stats = store.stats()
    assert stats["output_blocks_created"] + stats["output_blocks_reused"] == 1600
    assert stats["output_blocks_reused"] > 0
    assert not {name for name in seen if os.path.exists(f"/dev/shm/{name}")}


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

        # The worker respawned lazily; later events offload again.
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
        # not the transport's -- no restart, lanes stay aligned.
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
    store = ProcessBackend.store
    saved_max = store._max_tables
    store._max_tables = 1
    engine_a, table_a, prepared_a = build_pipeline_prepared(
        4, table=make_table(seed=11))
    engine_b, table_b, prepared_b = build_pipeline_prepared(
        4, table=make_table(seed=12))
    try:
        # Hold a pin on A's publication across B's publish, the way a
        # long pipeline session would, so B's eviction of A is deferred.
        published_a = store.publish(table_a)
        store.pin(published_a)
        try:
            assert_frames_identical(cold_frame(table_b, prepared_b),
                                    prepared_b.execute(), "B under pin")
            assert store.stats()["evict_deferred"] >= 1
            assert not published_a.closed
        finally:
            store.unpin(published_a)

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
        store._max_tables = saved_max
        engine_a.close()
        engine_b.close()


# --------------------------------------------------------------------------- #
# One coordinator, one op table: faults the local fleet must not mishandle
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
        # The op's fault, not the transport's: same workers, still aligned.
        assert stats["worker_restarts"] == 0
        assert stats["workers_alive"] == stats["worker_count"] == 2

        with local_lanes(backend) as fleet:
            assert [r["session"] for r in ping(fleet)] == [None, None]
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
    """A local worker names an unattached table with ``unknown-table``.

    The endpoints' ``attached`` caches still list the publication, so the
    op goes out without an attach; the worker's coded rejection makes the
    coordinator re-attach and retry once -- no fallback.
    """
    engine, table, prepared = build_pipeline_prepared(4)
    try:
        prepared.execute()
        backend = engine.execution_backend("process")
        key = backend.store.publish(table).key
        with local_lanes(backend) as fleet:
            assert all(key in ep.attached for ep in fleet.endpoints)
            fleet.round([{"op": "drop", "table_id": key}] * 2, timeout=30.0)
            with pytest.raises(WorkerOpError) as rejected:
                fleet.round([{"op": "pipeline_start", "table_id": key}] * 2,
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
