"""Execution backends: threads vs. the shared-memory process pool.

The ``process`` backend exists for the cold path: at a million rows a
plan whose sites have nothing to patch from pays a full-column pass per
stage, and a thread pool only helps while NumPy holds the GIL released.
The process pool runs the whole plan (leaf kernels, normalization,
combination, masks) in worker processes that map the table's columns
zero-copy out of ``multiprocessing.shared_memory``; what crosses the
pipe per event is only the plan, shard lists, block names, resolved
bounds and counting rows.

Measured here, on a 1M-row table of numeric non-range leaves (the shape
the backend accelerates -- a warm range drag patches in-process from its
site entry):

* cold 8-shard execute under ``backend="process"`` vs. the identical run
  under ``backend="threads"`` (**identical feedback always asserted**;
  the >= 2x throughput claim is asserted only where >= 8 CPUs exist --
  elsewhere the ratio is recorded in ``extra_info`` without the claim);
* the zero-copy boundary itself: bytes published once into shared memory
  vs. bytes crossing the pipe for one slider event.  The ratio is pickled
  message sizes over a fixed topology, so it is deterministic and gated
  in ``check_regression.py`` (``traffic_ratio``);
* the pipeline reply contract: one slider event runs the whole plan as a
  ``shard_pipeline`` session whose replies carry only per-shard counting
  rows (summaries) -- O(nodes x shards) bytes, independent of the rows
  per shard.  ``reply_ratio`` (per-shard column bytes / per-event reply
  bytes) is likewise a protocol byte count, gated in
  ``check_regression.py``;
* the coordinator's own allocation per accepted op: the ``tracemalloc``
  peak inside ``shard_pipeline`` (``op_alloc_peak_bytes``, reported, not
  gated).  The workers' output columns are adopted, never copied, so it
  is a few bytes a row;
* offload eligibility under mixed traffic: sessions opening on an engine
  whose earlier sessions already dragged the same range attribute must
  each take the whole-pipeline offload (``pipeline_ops_per_open == 1``)
  while every drag -- a range micro-move, or a threshold move on a plan
  whose range site has its entry -- is computed in-process and moves no
  backend counter or byte.

``extra_info`` lands in ``BENCH_backend.json``, which CI uploads as an
artifact next to the other BENCH_* trajectories.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro import (
    AndNode, OrNode, PipelineConfig, Query, QueryEngine, between, condition,
)
from repro.storage.table import Table

ROWS = 1_000_000
SHARDS = 8
#: The process pool sizes itself to the host by default; pin the worker
#: count so both backends fan out identically and the per-event traffic
#: (messages are broadcast per worker) is reproducible.
WORKERS = min(8, os.cpu_count() or 1)

#: Wall-clock assertions need real parallel hardware; identity and
#: traffic-boundary assertions hold everywhere.
ENOUGH_CPUS = (os.cpu_count() or 1) >= 8


def _table() -> Table:
    rng = np.random.default_rng(41)
    return Table("Readings", {
        "a": rng.normal(0.0, 1.0, ROWS),
        "b": rng.normal(0.0, 1.0, ROWS),
        "c": rng.exponential(1.0, ROWS),
        "d": rng.uniform(-2.0, 2.0, ROWS),
    })


def _condition():
    """Non-range leaves only: every distance column is a full scan."""
    return AndNode([
        condition("a", ">", 0.0),
        OrNode([condition("b", "<", 0.5), condition("c", ">", 1.5)]),
        condition("d", "<", 1.0),
    ])


def _prepare(table: Table, backend: str):
    config = PipelineConfig(percentage=0.2, shard_count=SHARDS,
                            max_workers=WORKERS, backend=backend)
    engine = QueryEngine(table, config)
    return engine.prepare(Query(name=f"bench-{backend}", tables=[table.name],
                                condition=_condition()))


def _drop_caches(prepared):
    """Reset per-table caches so the next execute() is a true cold run.

    The shared-memory publication survives on purpose: publish-once is
    part of the backend's design, cold work is the leaf kernels.
    """
    prepared.engine.evaluation_cache(prepared.table).clear()


def _cold_seconds(prepared, rounds=3):
    times = []
    for _ in range(rounds):
        _drop_caches(prepared)
        start = time.perf_counter()
        prepared.execute()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


@contextmanager
def _traced_ops(backend):
    """Collect the ``tracemalloc`` peak of each ``shard_pipeline`` call:
    the bytes the coordinator allocates per op (report only)."""
    peaks: list[int] = []
    shard_pipeline = backend.shard_pipeline

    def traced(sharded, spec):
        tracemalloc.start()
        try:
            return shard_pipeline(sharded, spec)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    backend.shard_pipeline = traced
    try:
        yield peaks
    finally:
        del backend.shard_pipeline


def _assert_feedback_identical(a, b):
    np.testing.assert_array_equal(a.display_order, b.display_order)
    assert a.statistics == b.statistics
    for path in a.node_feedback:
        np.testing.assert_array_equal(
            a.node_feedback[path].normalized_distances,
            b.node_feedback[path].normalized_distances,
        )


def test_backend_cold_throughput_1m(benchmark):
    """Cold 8-shard executes: process pool vs. shared thread pool."""
    table = _table()
    threads = _prepare(table, "threads")
    process = _prepare(table, "process")

    feedback_threads = threads.execute()
    feedback_process = process.execute()
    _assert_feedback_identical(feedback_threads, feedback_process)

    backend = process.engine.execution_backend("process")
    warm = backend.stats()
    assert warm["offloaded_ops"] >= 1, "process backend never offloaded"
    assert warm["published_bytes"] >= ROWS * 8 * 4  # four f8 columns

    threads_seconds = _cold_seconds(threads)
    process_seconds = _cold_seconds(process)
    speedup = threads_seconds / process_seconds

    def process_cold():
        _drop_caches(process)
        return process.execute()

    feedback_process = benchmark.pedantic(process_cold, rounds=3, iterations=1)
    _assert_feedback_identical(feedback_threads, feedback_process)

    # The zero-copy boundary: one slider event moves predicates and span
    # lists, never columns.  The op's coordinator-side allocation peak is
    # reported alongside: the output columns are adopted, not copied.
    before = backend.stats()
    process.condition.children[0].predicate.value = 0.1
    threads.condition.children[0].predicate.value = 0.1
    with _traced_ops(backend) as op_peaks:
        feedback_process = process.execute()
    _assert_feedback_identical(threads.execute(), feedback_process)
    after = backend.stats()
    event_traffic = after["traffic_bytes"] - before["traffic_bytes"]
    assert event_traffic > 0, "the event did not consult the backend"
    traffic_ratio = after["published_bytes"] / event_traffic

    # The pipeline reply contract: the event ran the whole plan in the
    # workers, and what came back over the pipes is counting rows --
    # kilobytes against the megabytes of columns each shard holds,
    # independent of rows per shard.
    assert after["pipeline_ops"] > before["pipeline_ops"], (
        "the event did not take the whole-pipeline offload")
    event_reply = after["reply_bytes"] - before["reply_bytes"]
    assert event_reply > 0, "pipeline replies recorded no bytes"
    per_shard_column_bytes = ROWS * 8 * 4 // SHARDS  # four f8 columns
    reply_ratio = per_shard_column_bytes / event_reply

    benchmark.extra_info.update({
        "rows": ROWS,
        "shards": SHARDS,
        "workers": WORKERS,
        "cpus": os.cpu_count() or 1,
        "threads_cold_ms": round(threads_seconds * 1e3, 2),
        "process_cold_ms": round(process_seconds * 1e3, 2),
        "cold_speedup": round(speedup, 2),
        "published_bytes": after["published_bytes"],
        "event_traffic_bytes": event_traffic,
        "traffic_ratio": round(traffic_ratio, 1),
        "event_reply_bytes": event_reply,
        "reply_ratio": round(reply_ratio, 1),
        "op_alloc_peak_bytes": max(op_peaks),
        "op_alloc_bytes_per_row": round(max(op_peaks) / ROWS, 2),
    })

    # Columns cross the boundary once; events cross in kilobytes.  This is
    # a deterministic property of the protocol, asserted everywhere and
    # gated against the committed baseline in CI.
    assert traffic_ratio >= 200.0, (
        f"per-event traffic too close to the published column volume: "
        f"{event_traffic} bytes moved vs {after['published_bytes']} published "
        f"({traffic_ratio:.0f}x)"
    )
    assert reply_ratio >= 50.0, (
        f"pipeline replies too close to per-shard column volume: "
        f"{event_reply} reply bytes vs {per_shard_column_bytes} bytes per "
        f"shard ({reply_ratio:.0f}x)"
    )
    if ENOUGH_CPUS:
        assert speedup >= 2.0, (
            f"process backend must be >= 2x faster cold at {WORKERS} workers: "
            f"{process_seconds * 1e3:.1f} ms vs threads "
            f"{threads_seconds * 1e3:.1f} ms ({speedup:.2f}x)"
        )

    threads.engine.close()
    process.engine.close()


def test_backend_mixed_open_drag_offloads_every_open(benchmark):
    """Opens offload whatever peers dragged before; drags never do.

    Eligibility is a property of the site: a session's first execution has
    no slice entry, so its range leaf ships with the rest of the plan; its
    own later micro-moves patch O(changed rows) in-process, and a threshold
    move on the same plan recomputes its leaf on the coordinator's thread
    pool.  No engine-wide state is consulted and the plan is the only
    thing a backend is ever offered, so every op counter counts exactly
    the opens.
    """
    rows = 200_000
    rng = np.random.default_rng(43)
    table = Table("Mixed", {"t": np.sort(rng.uniform(0.0, 1000.0, rows)),
                            "b": rng.normal(0.0, 1.0, rows)})
    engine = QueryEngine(table, PipelineConfig(
        percentage=0.02, shard_count=SHARDS, max_workers=WORKERS,
        backend="process"))
    opened = []

    def open_session():
        k = len(opened)
        prepared = engine.prepare(Query(
            name=f"mixed-{k}", tables=[table.name],
            condition=AndNode([between("t", 100.0 + k, 900.0 - k),
                               condition("b", "<", 0.5 + 0.1 * k)])))
        opened.append(prepared)
        return prepared.execute()

    def drag(prepared, high):
        prepared.condition.children[0].predicate.high = high
        prepared.execute()

    def pipeline_ops():
        return engine.stats()["backend"]["pipeline_ops"]

    try:
        open_session()
        drag(opened[0], 899.0)
        drag(opened[0], 898.0)
        assert pipeline_ops() == 1, "a drag took the whole-pipeline offload"
        for _ in range(4):
            open_session()
        benchmark.pedantic(open_session, rounds=3, iterations=1)
        ops_at_opens = pipeline_ops()
        drag(opened[-1], 880.0)
        drag(opened[0], 897.0)
        traffic_before = engine.stats()["backend"]["traffic_bytes"]
        started = time.perf_counter()
        opened[0].condition.children[1].predicate.value = 0.25
        opened[0].execute()
        threshold_ms = (time.perf_counter() - started) * 1e3
        stats = engine.stats()["backend"]
        benchmark.extra_info.update({
            "rows": rows,
            "shards": SHARDS,
            "sessions_opened": len(opened),
            "pipeline_ops": stats["pipeline_ops"],
            "pipeline_ops_per_open": ops_at_opens / len(opened),
            "warm_threshold_event_ms": round(threshold_ms, 3),
        })
        assert stats["pipeline_fallbacks"] == stats["fallbacks"] == 0
        assert stats["offloaded_ops"] == stats["pipeline_ops"], (
            "something other than a whole plan was offloaded")
        assert stats["traffic_bytes"] == traffic_before, (
            "a threshold drag on a plan with a warm range site moved "
            "backend bytes")
        assert ops_at_opens == len(opened), (
            f"{len(opened)} sessions opened after a peer's drag but only "
            f"{ops_at_opens} whole-pipeline ops ran")
        assert stats["pipeline_ops"] == ops_at_opens, (
            "a drag on a session with its own site entry was offloaded")
    finally:
        engine.close()


#: The remote leg needs a live worker fleet; the ``backend-remote`` CI
#: job launches two loopback servers and sets this before running it.
REMOTE_FLEET = os.environ.get("REPRO_REMOTE_WORKERS", "")


@pytest.mark.skipif(not REMOTE_FLEET, reason="REPRO_REMOTE_WORKERS not set")
def test_backend_remote_traffic_1m(benchmark):
    """Remote fleet at 1M rows: publish-once over TCP, events in kilobytes.

    The headline is ``remote_traffic_ratio``: column bytes published once
    (mapped zero-copy by co-located servers, streamed once to cross-host
    ones) over the wire bytes one slider event moves.  Like the process
    backend's ``traffic_ratio`` this is a protocol byte count --
    deterministic for a fixed topology -- and is gated as an absolute
    floor in ``check_regression.py``.  On the loopback fleet CI runs, the
    shared-memory plane must carry every column: zero column bytes on the
    socket in either direction.
    """
    table = _table()
    threads = _prepare(table, "threads")
    remote = _prepare(table, "remote")

    feedback_threads = threads.execute()
    feedback_remote = remote.execute()
    _assert_feedback_identical(feedback_threads, feedback_remote)

    backend = remote.engine.execution_backend("remote")
    warm = backend.stats()
    assert warm["offloaded_ops"] >= 1, "remote backend never offloaded"
    assert warm["remote_fallbacks"] == 0, warm
    assert warm["published_bytes"] >= ROWS * 8 * 4  # four f8 columns

    remote_seconds = _cold_seconds(remote)

    def remote_cold():
        _drop_caches(remote)
        return remote.execute()

    feedback_remote = benchmark.pedantic(remote_cold, rounds=3, iterations=1)
    _assert_feedback_identical(feedback_threads, feedback_remote)

    before = backend.stats()
    remote.condition.children[0].predicate.value = 0.1
    threads.condition.children[0].predicate.value = 0.1
    _assert_feedback_identical(threads.execute(), remote.execute())
    after = backend.stats()
    assert after["remote_fallbacks"] == 0, after
    event_wire = after["traffic_bytes"] - before["traffic_bytes"]
    assert event_wire > 0, "the event did not consult the fleet"
    remote_traffic_ratio = after["published_bytes"] / event_wire
    column_bytes_delta = after["column_bytes"] - before["column_bytes"]

    benchmark.extra_info.update({
        "rows": ROWS,
        "shards": SHARDS,
        "fleet": REMOTE_FLEET,
        "remote_cold_ms": round(remote_seconds * 1e3, 2),
        "published_bytes": after["published_bytes"],
        "event_wire_bytes": event_wire,
        "remote_traffic_ratio": round(remote_traffic_ratio, 1),
        "column_bytes_delta": column_bytes_delta,
    })

    assert remote_traffic_ratio >= 100.0, (
        f"per-event wire traffic too close to the published column volume: "
        f"{event_wire} bytes moved vs {after['published_bytes']} published "
        f"({remote_traffic_ratio:.0f}x)"
    )
    assert column_bytes_delta == 0, (
        f"loopback servers must map columns over shared memory, but "
        f"{column_bytes_delta} column bytes crossed the socket"
    )

    threads.engine.close()
    remote.engine.close()


if __name__ == "__main__":  # pragma: no cover - manual timing entry point
    table = _table()
    threads = _prepare(table, "threads")
    process = _prepare(table, "process")
    _assert_feedback_identical(threads.execute(), process.execute())
    threads_s = _cold_seconds(threads, rounds=3)
    process_s = _cold_seconds(process, rounds=3)
    stats = process.engine.execution_backend("process").stats()
    print(f"rows={ROWS}  shards={SHARDS}  workers={WORKERS}  cpus={os.cpu_count()}")
    print(f"cold threads: {threads_s * 1e3:.1f} ms")
    print(f"cold process: {process_s * 1e3:.1f} ms ({threads_s / process_s:.2f}x)")
    print(f"published={stats['published_bytes']}  traffic={stats['traffic_bytes']}")
    threads.engine.close()
    process.engine.close()
