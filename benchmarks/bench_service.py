"""Feedback service under concurrent load: coalescing and latency.

Measures the multi-session scheduler over one shared engine at 1, 8 and 32
concurrent sessions, all driving slider drags against the same evaluation
table:

* **sustained coalesced events/sec** -- events admitted per wall-clock
  second while every session drags at full rate (far faster than the
  pipeline re-executes);
* **p95 snapshot latency** -- the 95th percentile pipeline-run duration
  (event batch applied + windows rendered), per the service's own metrics;
* **runs per session** -- the acceptance claim of the service: a queued
  burst of >= 100 drag events resolves in <= 10 pipeline executions per
  session, because bursts collapse to the newest slider position
  (asserted, not just recorded).

A second leg measures what sharing the engine costs a dragging session:

* **multi_session_patch_ratio** -- median per-event time with 8 sessions
  dragging the *same* range attribute in turn (each at its own phase of
  the band) over the median with 1 session, on one engine and one
  250k-row table.  Patch provenance is per prepared query, so a peer's
  drag must not cost a session its dirty-shard patch chain: the ratio
  stays near 1 (measured ~1.1; ~5.7 when range deltas were based on the
  engine-wide last writer).  ``check_regression.py`` gates it as an
  absolute ``{"max": ...}`` ceiling.

Results land in ``extra_info`` -> ``BENCH_service.json`` (uploaded as a CI
artifact alongside the sharded benchmark).
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

import numpy as np

from repro import FeedbackService, PipelineConfig, ServiceConfig, Table
from repro.datasets import environmental_database
from repro.interact.events import SetQueryRange

#: Drag length per session; >= 100 so the run-count bound is the claim
#: stated in the service's acceptance criteria.
EVENTS_PER_SESSION = 120
SESSION_COUNTS = (1, 8, 32)


def _database():
    # 7,200 weather rows: big enough that a pipeline run is real work,
    # small enough that 32 sessions stay CI-friendly.
    return environmental_database(hours=2400, stations=3, seed=9)


QUERY = (
    "SELECT * FROM Weather "
    "WHERE Temperature > 15 AND Humidity BETWEEN 30 AND 80"
)


async def _drive(database, sessions: int) -> dict[str, float]:
    """Open ``sessions`` sessions, burst-drag each, wait for settled frames."""
    service = FeedbackService(
        database,
        PipelineConfig(percentage=0.3),
        service_config=ServiceConfig(
            max_sessions=sessions,
            max_inflight=min(4, os.cpu_count() or 1),
        ),
    )
    async with service:
        ids = [await service.open_session(QUERY) for _ in range(sessions)]
        start = time.perf_counter()
        # Round-robin firehose: every session advances its lower humidity
        # bound once per round, nobody waits for feedback between events.
        for step in range(EVENTS_PER_SESSION):
            for sid in ids:
                await service.submit(
                    sid, SetQueryRange((1,), 30.0 + step * 0.25, 80.0))
            # Yield so the scheduler overlaps execution with the burst.
            await asyncio.sleep(0)
        for sid in ids:
            await service.snapshot(sid)
        elapsed = time.perf_counter() - start

        total_events = sessions * EVENTS_PER_SESSION
        # Run counts exclude each session's initial (open-time) execution:
        # the claim is about the drag burst.
        runs = [service.registry.get(sid).metrics.runs - 1 for sid in ids]
        p95 = max(
            service.registry.get(sid).metrics.run_latency.p95 for sid in ids
        )
        coalesced = sum(
            service.registry.get(sid).metrics.events_coalesced for sid in ids
        )
        for sid, session_runs in zip(ids, runs):
            assert session_runs <= 10, (
                f"coalescing regressed: session {sid} resolved "
                f"{EVENTS_PER_SESSION} queued events in {session_runs} runs (> 10)"
            )
        assert coalesced >= total_events * 0.8
        # Attribute where run latency went: the dirty-shard counters say
        # how much per-event work the site entries absorbed vs. recomputed.
        incremental = service.metrics_report()["incremental"]
    return {
        "sessions": sessions,
        "events": total_events,
        "events_per_sec": total_events / elapsed,
        "p95_run_ms": p95 * 1e3,
        "max_runs_per_session": max(runs),
        "coalesced": coalesced,
        "elapsed_s": elapsed,
        "shards_recomputed": incremental["shards_recomputed"],
        "shards_reused": incremental["shards_reused"],
        "displayed_patches": incremental["displayed_patches"],
    }


def test_service_coalesces_bursts_across_session_counts(benchmark):
    database = _database()
    results = {
        sessions: asyncio.run(_drive(database, sessions))
        for sessions in SESSION_COUNTS
    }

    # The timed figure: the mid-size (8-session) configuration.
    timed = benchmark.pedantic(
        lambda: asyncio.run(_drive(database, 8)), rounds=3, iterations=1
    )
    results[8] = timed

    benchmark.extra_info.update({
        "cpus": os.cpu_count() or 1,
        "events_per_session": EVENTS_PER_SESSION,
        **{
            f"s{sessions}_{key}": round(float(value), 3)
            for sessions, row in results.items()
            for key, value in row.items()
        },
    })
    # Throughput must not collapse with concurrency: 32 sessions over one
    # engine should still admit events at least as fast as one session
    # (coalescing makes admission O(1); execution is shared and bounded).
    assert results[32]["events_per_sec"] >= results[1]["events_per_sec"] * 0.5


# --------------------------------------------------------------------------- #
# Interleaved same-attribute drags on one engine
# --------------------------------------------------------------------------- #
PATCH_ROWS = 250_000
PATCH_SHARDS = 8
PATCH_SESSIONS = 8
#: Timed drag steps per session (after ``PATCH_WARM`` untimed ones).
PATCH_STEPS = 30
PATCH_WARM = 4
PATCH_QUERY = (
    "SELECT * FROM Events "
    "WHERE t BETWEEN 5.0 AND 990.0 AND (a > 30.0 OR b < 70.0)"
)


def _locality_table(rows: int = PATCH_ROWS, seed: int = 7) -> Table:
    """``t`` sorted (a value band maps to few row-range shards), ``a``
    following it loosely, ``b`` independent of row order."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1000.0, rows))
    return Table("Events", {
        "t": t,
        "a": t * 0.1 + rng.normal(0.0, 5.0, rows),
        "b": rng.uniform(0.0, 100.0, rows),
    })


def _band_position(step: int, low: float = 980.0, high: float = 990.0,
                   tick: float = 0.05) -> float:
    """Triangle wave inside the band, so dirty work per event is stationary."""
    n = int(round((high - low) / tick))
    i = step % (2 * n)
    return round(low + (i if i <= n else 2 * n - i) * tick, 9)


async def _interleaved_drag(table: Table, sessions: int) -> dict[str, float]:
    """``sessions`` sessions drag ``t``'s upper bound in turn, closed loop.

    One event is in flight at a time (submit, await the settled frame, next
    session), so an event's time is its own engine run plus frame build --
    what a peer's interleaved drag must not inflate.
    """
    service = FeedbackService(
        table,
        PipelineConfig(percentage=0.01, shard_count=PATCH_SHARDS),
        service_config=ServiceConfig(max_sessions=sessions, max_inflight=1),
    )
    async with service:
        ids = [await service.open_session(PATCH_QUERY) for _ in range(sessions)]
        samples: list[float] = []
        def slices() -> tuple[int, int]:
            counters = service.metrics_report()["incremental"]
            return counters["slice_hits"], counters["slice_misses"]

        # Events (first drags included) that computed node columns but
        # patched none: slice_misses grew, slice_hits did not.  An event
        # landing on bounds a peer just computed is served wholly from the
        # node cache and moves neither.
        unpatched = 0
        counts = slices()
        for step in range(PATCH_WARM + PATCH_STEPS):
            for k, sid in enumerate(ids):
                # Every session at its own phase of the band.
                event = SetQueryRange((0,), 5.0, _band_position(step + 37 * k))
                start = time.perf_counter()
                await service.submit(sid, event)
                await service.snapshot(sid)
                if step >= PATCH_WARM:
                    samples.append(time.perf_counter() - start)
                (hits, misses), counts = counts, slices()
                unpatched += counts[1] > misses and counts[0] == hits
        incremental = service.metrics_report()["incremental"]
    slices = incremental["shards_recomputed"] + incremental["shards_reused"]
    return {
        "event_ms_p50": statistics.median(samples) * 1e3,
        "dirty_share": incremental["shards_recomputed"] / max(slices, 1),
        "displayed_patches": incremental["displayed_patches"],
        "unpatched_events": unpatched,
    }


def test_service_multi_session_patch_ratio(benchmark):
    table = _locality_table()
    solo = asyncio.run(_interleaved_drag(table, 1))
    shared = benchmark.pedantic(
        lambda: asyncio.run(_interleaved_drag(table, PATCH_SESSIONS)),
        rounds=3, iterations=1,
    )
    ratio = shared["event_ms_p50"] / solo["event_ms_p50"]
    benchmark.extra_info.update({
        "cpus": os.cpu_count() or 1,
        "rows": PATCH_ROWS,
        "shards": PATCH_SHARDS,
        "sessions": PATCH_SESSIONS,
        "multi_session_patch_ratio": round(ratio, 3),
        **{f"s1_{key}": round(float(value), 4) for key, value in solo.items()},
        **{f"s{PATCH_SESSIONS}_{key}": round(float(value), 4)
           for key, value in shared.items()},
    })
    # Machine-independent half of the claim: interleaved peers keep
    # patching (a session's base is its own previous state, held on its
    # prepared query), from the first drags on -- sessions 2..8 open from
    # the node cache and patch from what that open left.
    assert shared["displayed_patches"] > 0
    assert shared["dirty_share"] < 0.5
    assert shared["unpatched_events"] == 0


if __name__ == "__main__":  # pragma: no cover - manual timing entry point
    database = _database()
    print(f"cpus={os.cpu_count()}  rows={len(database.table('Weather'))}")
    header = (f"{'sessions':>8} {'events':>7} {'events/s':>10} "
              f"{'p95 run ms':>11} {'max runs':>9}")
    print(header)
    for sessions in SESSION_COUNTS:
        row = asyncio.run(_drive(database, sessions))
        print(f"{sessions:>8} {row['events']:>7} {row['events_per_sec']:>10.0f} "
              f"{row['p95_run_ms']:>11.2f} {row['max_runs_per_session']:>9}")
    table = _locality_table()
    solo = asyncio.run(_interleaved_drag(table, 1))
    shared = asyncio.run(_interleaved_drag(table, PATCH_SESSIONS))
    print(f"interleaved same-attribute drags, {PATCH_ROWS} rows / "
          f"{PATCH_SHARDS} shards: 1 session {solo['event_ms_p50']:.2f} ms, "
          f"{PATCH_SESSIONS} sessions {shared['event_ms_p50']:.2f} ms "
          f"(dirty share {shared['dirty_share']:.2f}), "
          f"multi_session_patch_ratio "
          f"{shared['event_ms_p50'] / solo['event_ms_p50']:.2f}")
