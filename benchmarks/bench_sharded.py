"""Sharded execution: one-shard vs. shard-parallel cold runs.

The sharding layer exists so that the O(n) renormalize/recombine/select
floor of a cold execution no longer runs over the whole evaluation table
in one piece: leaf distances, normalization and combination are dispatched
per row-range shard through a thread pool (NumPy releases the GIL on the
hot kernels), and the global steps are answered by mergeable partials.
Both sides run the same evaluator; the "single" side is its one-shard
case (inline, no pool), not a separate monolithic path.

Measured here, on the same 250k-row approximate-join table as
``bench_incremental.py``:

* cold one-shard execute vs. cold 4-shard/4-worker execute
  (**identical feedback always asserted**; the >= 2x wall-clock speedup is
  asserted only when the machine actually has >= 4 CPUs -- on smaller
  hosts the numbers are recorded in ``extra_info`` without the claim);
* a sharded prepared single-leaf slider modification vs. a cold run,
  guarding the >= 5x incremental speedup of PR 1 against regression from
  the sharding layer (same CPU gate: thread fan-out on a single core is
  overhead, not speedup).

``extra_info`` lands in the benchmark JSON, which CI uploads as an
artifact -- the BENCH_* trajectory starts with this file.
"""

from __future__ import annotations

import copy
import os
import time

import numpy as np

from repro import (
    AndNode,
    OrNode,
    PipelineConfig,
    QueryBuilder,
    QueryEngine,
    VisualFeedbackQuery,
    condition,
)
from repro.datasets import environmental_database
from repro.interact.events import SetQueryRange
from repro.query.builder import between

#: Evaluation-table size floor the claims are made for.
MIN_ROWS = 50_000
SHARDS = 4
#: Threads are only useful up to the core count: oversubscribing a small
#: host turns the pool into pure overhead, so the benchmark requests "4
#: workers" only where 4 cores exist (the configuration the claim is for)
#: and otherwise degrades to what the hardware offers.
WORKERS = min(4, os.cpu_count() or 1)

#: Wall-clock assertions need real parallel hardware; identity assertions
#: hold everywhere.
ENOUGH_CPUS = (os.cpu_count() or 1) >= 4


def _database():
    # 3,200 rows per base table: the cross product (10.2M pairs, sampled to
    # 250k) is the evaluation table.
    return environmental_database(hours=400, stations=8, seed=3)


def _build_query(db):
    """The Fig. 3 shaped query also used by bench_incremental.py."""
    return (
        QueryBuilder("fig3-sharded", db)
        .use_tables("Weather")
        .where(AndNode([
            OrNode([
                condition("Weather.Temperature", ">", 15.0),
                condition("Weather.Solar-Radiation", ">", 600.0),
                condition("Weather.Humidity", "<", 60.0),
            ]),
            between("Weather.Wind-Speed", 0.0, 12.0),
            between("Air-Pollution.Ozone", 20.0, 120.0),
            between("Air-Pollution.NO2", 0.0, 80.0),
        ]))
        .use_connection("Air-Pollution with-time-diff Weather", parameter=120)
        .build()
    )


def _config(**overrides):
    return PipelineConfig(percentage=0.2, max_join_pairs=250_000).with_(**overrides)


def _drop_caches(prepared):
    """Reset per-table caches so the next execute() is a true cold run."""
    prepared.engine.evaluation_cache(prepared.table).clear()


def _cold_seconds(prepared, rounds=3):
    times = []
    for _ in range(rounds):
        _drop_caches(prepared)
        start = time.perf_counter()
        prepared.execute()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _assert_feedback_identical(a, b):
    np.testing.assert_array_equal(a.display_order, b.display_order)
    assert a.statistics == b.statistics
    for path in a.node_feedback:
        np.testing.assert_array_equal(
            a.node_feedback[path].normalized_distances,
            b.node_feedback[path].normalized_distances,
        )


def test_sharded_cold_speedup(benchmark):
    """A cold 4-shard/4-worker run vs. the cold one-shard (inline) run."""
    db = _database()
    single = QueryEngine(db, _config(shard_count=1)).prepare(_build_query(db))
    sharded = QueryEngine(db, _config(shard_count=SHARDS, max_workers=WORKERS)).prepare(
        _build_query(db))

    feedback_single = single.execute()
    feedback_sharded = sharded.execute()
    assert feedback_single.statistics.num_objects >= MIN_ROWS
    _assert_feedback_identical(feedback_single, feedback_sharded)

    single_seconds = _cold_seconds(single)
    sharded_seconds = _cold_seconds(sharded)
    speedup = single_seconds / sharded_seconds

    def sharded_cold():
        _drop_caches(sharded)
        return sharded.execute()

    feedback_sharded = benchmark.pedantic(sharded_cold, rounds=3, iterations=1)
    _assert_feedback_identical(feedback_single, feedback_sharded)

    benchmark.extra_info.update({
        "rows": feedback_sharded.statistics.num_objects,
        "shards": SHARDS,
        "workers": WORKERS,
        "cpus": os.cpu_count() or 1,
        "single_thread_ms": round(single_seconds * 1e3, 2),
        "sharded_ms": round(sharded_seconds * 1e3, 2),
        "cold_speedup": round(speedup, 2),
    })
    if ENOUGH_CPUS:
        assert speedup >= 2.0, (
            f"cold sharded execution must be >= 2x faster at {WORKERS} workers: "
            f"{sharded_seconds * 1e3:.1f} ms vs {single_seconds * 1e3:.1f} ms "
            f"({speedup:.2f}x)"
        )
    else:
        # Single-core host: the claim is untestable; identity was asserted,
        # and sharded semantics must at least not collapse throughput.
        assert speedup >= 0.5, (
            f"sharded execution collapsed on a small host: {speedup:.2f}x"
        )


def test_sharded_incremental_single_leaf_no_regression(benchmark):
    """Sharding must not regress the >= 5x single-leaf incremental speedup."""
    db = _database()
    config = _config(shard_count=SHARDS, max_workers=WORKERS)
    prepared = QueryEngine(db, config).prepare(_build_query(db))
    feedback = prepared.execute()
    assert feedback.statistics.num_objects >= MIN_ROWS

    high = [120.0]

    def modify_and_execute():
        high[0] -= 0.5
        return prepared.execute(changes=[SetQueryRange((2,), 20.0, high[0])])

    modify_and_execute()  # warm-up (builds the per-shard indexes)
    prepared_times, cold_times = [], []
    for _ in range(5):
        start = time.perf_counter()
        feedback = modify_and_execute()
        prepared_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        cold = VisualFeedbackQuery(
            db, copy.deepcopy(prepared.query), _config(shard_count=1)).execute()
        cold_times.append(time.perf_counter() - start)
    prepared_seconds = float(np.median(prepared_times))
    cold_seconds = float(np.median(cold_times))
    speedup = cold_seconds / prepared_seconds

    feedback = benchmark.pedantic(modify_and_execute, rounds=3, iterations=1)
    cold = VisualFeedbackQuery(
        db, copy.deepcopy(prepared.query), _config(shard_count=1)).execute()
    _assert_feedback_identical(feedback, cold)

    benchmark.extra_info.update({
        "rows": feedback.statistics.num_objects,
        "shards": SHARDS,
        "workers": WORKERS,
        "cpus": os.cpu_count() or 1,
        "prepared_ms": round(prepared_seconds * 1e3, 2),
        "cold_ms": round(cold_seconds * 1e3, 2),
        "incremental_speedup": round(speedup, 1),
    })
    # The incremental path touches only the shards the slider delta
    # intersects; even on one core it must stay far ahead of a cold run.
    assert speedup >= 5.0, (
        f"sharded incremental re-execution regressed below 5x: "
        f"{prepared_seconds * 1e3:.1f} ms vs cold {cold_seconds * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )


if __name__ == "__main__":  # pragma: no cover - manual timing entry point
    db = _database()
    single = QueryEngine(db, _config(shard_count=1)).prepare(_build_query(db))
    sharded = QueryEngine(db, _config(shard_count=SHARDS, max_workers=WORKERS)).prepare(
        _build_query(db))
    _assert_feedback_identical(single.execute(), sharded.execute())
    single_s = _cold_seconds(single, rounds=5)
    sharded_s = _cold_seconds(sharded, rounds=5)
    print(f"rows={len(single.table)}  cpus={os.cpu_count()}")
    print(f"cold single-thread: {single_s * 1e3:.1f} ms")
    print(f"cold {SHARDS} shards x {WORKERS} workers: {sharded_s * 1e3:.1f} ms "
          f"({single_s / sharded_s:.2f}x)")
