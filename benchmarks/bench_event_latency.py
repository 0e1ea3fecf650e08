"""Per-event latency of the dirty-shard incremental execute path (PR 4).

The interaction loop's cost unit is one slider tick.  Before the per-shard
slice cache, every tick paid an O(n) renormalize/recombine/select pass over
the full evaluation table -- shard-parallel since PR 2, but O(n) total.
With dirty-node caching a single-leaf interior move costs O(changed rows +
window): only the shards the swept band intersects recompute, per node, and
the displayed set patches from cached per-shard below/tie decompositions.

Measured here on synthetic tables whose slider attribute correlates with
row order (the locality real time-series data has -- row-range shards give
a value band few dirty shards):

* **headline** (1M rows, 32 shards): p50/p95 per-event latency of interior
  micro-moves against the cold path a client can reach -- the same bounds
  executed by a fresh ``PreparedQuery`` on its own warm engine (leaf/node
  LRUs and indexes warm, no per-query state to patch from) -- asserting
  the event recomputes no more than the dirty shards (counter-verified)
  and a >= 5x lower p95;
* **size sweep**: p50/p95 at 50k / 250k / 1M / 4M rows under a *fixed
  screen*: the display budget (rows shown) and the swept band (rows whose
  distance an event changes) are held constant across sizes, because the
  flat-in-n claim is about the size of the *change*, not the table -- a
  drag whose band is a fixed fraction of n is an O(n) event no matter how
  it is executed.  Shard count scales with the table (rows per shard is
  the configured constant, as a deployment would set it), since dirty
  work on the patch path is per-shard-span granular.  The
  ``latency_flatness`` ratio (p95 at the largest size / p95 at 250k)
  gates the claim in CI: with chunked copy-on-write columns and the
  certificate short-circuits, a constant-size event at 16x the rows must
  stay within 2x the reference p95;
* **dirty-fraction sweep**: p50 as the violating band grows from ~1 shard
  to all 32 -- latency must degrade towards (never beyond ~equality with)
  the full path, since patching falls back rather than thrashing.

Identity is not re-proven here (tests/test_differential.py owns that);
the wall-clock claims are CPU-gated like the other benchmarks.  All
numbers land in ``extra_info`` -> ``BENCH_event_latency.json``, which the
CI regression gate compares against the committed baseline.
"""

from __future__ import annotations

import copy
import json
import os
import time

import numpy as np

from repro import PipelineConfig, QueryEngine
from repro.interact.events import SetQueryRange
from repro.obs import Tracer, use_trace, write_chrome_trace
from repro.query.builder import Query, between, condition
from repro.query.expr import AndNode, OrNode
from repro.storage.table import Table

SHARDS = 32
WORKERS = min(4, os.cpu_count() or 1)
ENOUGH_CPUS = (os.cpu_count() or 1) >= 2
SIZES = (50_000, 250_000, 1_000_000, 4_000_000)
#: Reference size for the flatness ratio: large enough to be past cold
#: caches and fixed per-event overheads, small enough that 16x more rows
#: would clearly show any O(n) term left on the hot path.
FLATNESS_BASE_ROWS = 250_000
#: The fixed screen for the size sweep.  ``SWEEP_VIEW_ROWS`` is the
#: display budget (the screen does not grow with the table), so the
#: per-size ``percentage`` is ``SWEEP_VIEW_ROWS / n``; it is sized so the
#: adaptive cutoff ``target * shards <= n // 2`` holds even at 50k rows.
#: ``SWEEP_BAND_ROWS`` rows sit beyond the slider's high bound at the
#: start of the drag and ``SWEEP_STEP_ROWS`` rows cross it per event --
#: the slider column is uniform on [0, 1000], so ``start_high`` and
#: ``step`` follow from the row counts.  Holding these constant is what
#: makes the flatness ratio meaningful: the event's semantic size (rows
#: changed + rows displayed) is identical at every table size.
SWEEP_VIEW_ROWS = 600
SWEEP_BAND_ROWS = 5_000
SWEEP_STEP_ROWS = 250
#: The sweep shards proportionally to the table, the way a deployment
#: would configure it: rows per shard is the constant, not the shard
#: count.  Per-event work on the patch path is O(band + dirty chunks +
#: rows_per_shard * dirty_shards + shards), so holding rows-per-shard
#: fixed is what the flat-in-n composition actually promises; the cap
#: keeps the O(shards) coordinator bookkeeping from dominating at the
#: top size.  The headline stays at the fixed 1M/32 configuration.
SWEEP_ROWS_PER_SHARD = 15_625


def _sweep_shards(n: int) -> int:
    return min(256, max(SHARDS, n // SWEEP_ROWS_PER_SHARD))
HEADLINE_ROWS = 1_000_000
WARMUP_EVENTS = 5
MEASURED_EVENTS = 20


def locality_table(n: int, seed: int = 7) -> Table:
    """Synthetic table whose slider column correlates with row order."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1000.0, n))
    a = t * 0.1 + rng.normal(0.0, 5.0, n)
    b = rng.uniform(0.0, 100.0, n)
    return Table("Events", {"t": t, "a": a, "b": b})


def _condition(high: float = 990.0):
    return AndNode([
        between("t", 5.0, high),
        OrNode([condition("a", ">", 30.0), condition("b", "<", 70.0)]),
    ])


def _config(percentage: float = 0.01, shards: int = SHARDS) -> PipelineConfig:
    return PipelineConfig(
        percentage=percentage, shard_count=shards, max_workers=WORKERS)


def _prepare(table: Table, percentage: float = 0.01, shards: int = SHARDS):
    engine = QueryEngine(table, _config(percentage, shards))
    prepared = engine.prepare(
        Query(name="events", tables=[table.name], condition=_condition()))
    prepared.execute()
    return engine, prepared


def _full_engine(table: Table) -> QueryEngine:
    """A warm engine for the "full" side: one open done, slider indexed."""
    engine, _ = _prepare(table)
    engine.ensure_range_index(table, "t", shard_count=SHARDS)
    return engine


def _full_event(engine: QueryEngine, table: Table, high: float):
    """The cold path: a fresh prepared query opens at the event's bounds."""
    return engine.prepare(Query(
        name="events", tables=[table.name], condition=_condition(high),
    )).execute()


def _drag(prepared, *, start_high: float, step: float, events: int,
          warmup: int = WARMUP_EVENTS):
    """Run an interior micro-move drag; returns (times_s, last_feedback).

    The first ``warmup`` events are excluded from the timings: they pay
    one-off costs (index builds, allocator page faults) that a steady
    drag never sees.
    """
    high = start_high
    times = []
    feedback = None
    for k in range(warmup + events):
        high -= step
        t0 = time.perf_counter()
        feedback = prepared.execute(changes=[SetQueryRange((0,), 5.0, high)])
        elapsed = time.perf_counter() - t0
        if k >= warmup:
            times.append(elapsed)
    return times, feedback


def _interleaved_drag(incremental_prepared, full_engine, *, start_high: float,
                      step: float, events: int, warmup: int = WARMUP_EVENTS):
    """Alternate the same micro-moves between both paths, one event apart.

    The incremental side drags one prepared query; the full side opens a
    fresh one at the same bounds on ``full_engine`` (:func:`_full_event`).

    Background load on a shared host then hits both sides equally, so the
    p50/p95 *ratio* stays meaningful even when absolute timings wobble
    (the repo-wide rule for speed comparisons).
    """
    times_inc, times_full = [], []
    feedback = None
    high = start_high
    for k in range(warmup + events):
        high -= step
        event = [SetQueryRange((0,), 5.0, high)]
        t0 = time.perf_counter()
        feedback = incremental_prepared.execute(changes=list(event))
        inc_elapsed = time.perf_counter() - t0
        t0 = time.perf_counter()
        _full_event(full_engine, incremental_prepared.table, high)
        full_elapsed = time.perf_counter() - t0
        if k >= warmup:
            times_inc.append(inc_elapsed)
            times_full.append(full_elapsed)
    return times_inc, times_full, feedback


def _quantiles(times) -> tuple[float, float]:
    return float(np.median(times)), float(np.quantile(times, 0.95))


# --------------------------------------------------------------------------- #
# Headline: 1M rows, 32 shards, incremental vs a fresh query per event
# --------------------------------------------------------------------------- #
def test_event_latency_headline_1m_rows(benchmark):
    table = locality_table(HEADLINE_ROWS)
    engine, prepared = _prepare(table)
    full_engine = _full_engine(table)
    stats = engine.evaluation_cache(prepared.table).stats
    # Warm both paths first (index builds, allocator page faults), then
    # snapshot the counters so the assertions below cover exactly the
    # measured steady-state drag.
    _interleaved_drag(prepared, full_engine, start_high=990.0, step=0.2,
                      events=WARMUP_EVENTS, warmup=0)
    before = stats.as_dict()
    times_inc, times_full, feedback = _interleaved_drag(
        prepared, full_engine,
        start_high=990.0 - (WARMUP_EVENTS * 0.2), step=0.2,
        events=MEASURED_EVENTS, warmup=0)
    after = stats.as_dict()
    report = feedback.extra["incremental"]

    # Counter-verified dirty-shard bound: across the whole measured drag,
    # every patched node recomputed at most the dirty shards and reused
    # the rest (cold and warmup executions are excluded by the snapshot).
    assert report["root_dirty_shards"] is not None
    assert 0 < report["root_dirty_shards"] < SHARDS
    recomputed = after["shards_recomputed"] - before["shards_recomputed"]
    reused = after["shards_reused"] - before["shards_reused"]
    patched_nodes = after["slice_hits"] - before["slice_hits"]
    missed_nodes = after["slice_misses"] - before["slice_misses"]
    assert missed_nodes == 0, "steady-state drag must not fall off the patch path"
    assert recomputed + reused == patched_nodes * SHARDS
    assert recomputed < patched_nodes * SHARDS // 2, (
        "interior micro-moves must recompute a minority of shard slices"
    )
    assert after["displayed_patches"] > before["displayed_patches"]

    p50_inc, p95_inc = _quantiles(times_inc)
    p50_full, p95_full = _quantiles(times_full)
    p95_speedup = p95_full / p95_inc

    high = [980.0]

    def one_event():
        high[0] -= 0.2
        return prepared.execute(changes=[SetQueryRange((0,), 5.0, high[0])])

    benchmark.pedantic(one_event, rounds=3, iterations=1)
    benchmark.extra_info.update({
        "rows": HEADLINE_ROWS,
        "shards": SHARDS,
        "cpus": os.cpu_count() or 1,
        "root_dirty_shards": report["root_dirty_shards"],
        "p50_incremental_ms": round(p50_inc * 1e3, 2),
        "p95_incremental_ms": round(p95_inc * 1e3, 2),
        "p50_full_ms": round(p50_full * 1e3, 2),
        "p95_full_ms": round(p95_full * 1e3, 2),
        "p50_speedup": round(p50_full / p50_inc, 2),
        "p95_speedup": round(p95_speedup, 2),
    })
    if ENOUGH_CPUS:
        assert p95_speedup >= 5.0, (
            f"single-leaf interior events must be >= 5x faster at p95 than "
            f"a fresh query's full path: p95 {p95_inc * 1e3:.1f} ms vs "
            f"{p95_full * 1e3:.1f} ms ({p95_speedup:.1f}x)"
        )


# --------------------------------------------------------------------------- #
# Size sweep: 50k / 250k / 1M rows
# --------------------------------------------------------------------------- #
def test_event_latency_size_sweep(benchmark):
    rows = {}
    for n in SIZES:
        table = locality_table(n)
        # Fixed screen: the same number of displayed rows and the same
        # number of swept rows per event at every size.  The slider column
        # is uniform on [0, 1000], so row counts convert to value space by
        # the 1000/n density.
        _, prepared = _prepare(table, percentage=SWEEP_VIEW_ROWS / n,
                               shards=_sweep_shards(n))
        start_high = 1000.0 * (1.0 - SWEEP_BAND_ROWS / n)
        step = 1000.0 * SWEEP_STEP_ROWS / n
        times, _ = _drag(prepared, start_high=start_high, step=step, events=24)
        p50, p95 = _quantiles(times)
        rows[str(n)] = {"p50_ms": round(p50 * 1e3, 2),
                        "p95_ms": round(p95 * 1e3, 2)}

    # The flat-in-n headline: a constant-size interior micro-move touches
    # O(changed rows + dirty chunks + rows_per_shard + shards) work, so
    # p95 at the largest size must sit within a small constant of p95 at
    # the 250k reference -- not scale with the 16x row spread.  Both sides
    # are steady back-to-back drags (interleaving sizes would measure the
    # cache churn of alternating working sets, not the claim).  Gated in
    # CI as an absolute floor on the inverse (latency_flatness <= 2.0
    # <=>  latency_flatness_inverse >= 0.5), since check_regression.py
    # floors are >=-style.
    base_p95 = rows[str(FLATNESS_BASE_ROWS)]["p95_ms"]
    large_p95 = rows[str(SIZES[-1])]["p95_ms"]
    flatness = large_p95 / base_p95
    table = locality_table(SIZES[0])
    _, prepared = _prepare(table)
    high = [980.0]

    def one_event():
        high[0] -= 0.2
        return prepared.execute(changes=[SetQueryRange((0,), 5.0, high[0])])

    benchmark.pedantic(one_event, rounds=3, iterations=1)
    benchmark.extra_info.update({
        "per_size": rows,
        "shards": {str(n): _sweep_shards(n) for n in SIZES},
        "rows_per_shard": SWEEP_ROWS_PER_SHARD,
        "view_rows": SWEEP_VIEW_ROWS,
        "band_rows": SWEEP_BAND_ROWS,
        "step_rows": SWEEP_STEP_ROWS,
        "flatness_base_rows": FLATNESS_BASE_ROWS,
        "flatness_large_rows": SIZES[-1],
        "flatness_base_p95_ms": round(base_p95, 2),
        "flatness_large_p95_ms": round(large_p95, 2),
        "latency_flatness": round(flatness, 3),
        "latency_flatness_inverse": round(1.0 / flatness, 3),
    })
    # Shape assertion: per-event latency must grow sublinearly with the
    # table (the dominant costs are the dirty band, dirty chunks and the
    # per-shard certificates, never a full renormalize or memcpy).  80x
    # the rows must cost well under 80x.
    small = rows[str(SIZES[0])]["p50_ms"]
    large = rows[str(SIZES[-1])]["p50_ms"]
    assert large < small * (SIZES[-1] / SIZES[0]) * 0.5
    if ENOUGH_CPUS:
        # Local sanity bound only -- the CI gate owns the 2.0 contract
        # via the committed baseline; a catastrophically un-flat sweep
        # (an O(n) term back on the hot path) should fail loudly here.
        assert flatness < 4.0, (
            f"p95 event latency is no longer flat in n: "
            f"{large_p95:.2f} ms at {SIZES[-1]} rows vs {base_p95:.2f} ms "
            f"at {FLATNESS_BASE_ROWS} rows ({flatness:.2f}x)")


# --------------------------------------------------------------------------- #
# Trace overhead: the same drag with span tracing on vs off
# --------------------------------------------------------------------------- #
TRACE_ARTIFACT = "TRACE_event_latency.json"


def test_event_latency_trace_overhead(benchmark):
    """Enabled tracing must cost <= ~5% on the headline micro-move drag.

    Two engines over the same table run the identical interleaved event
    stream (the repo's noise-cancelling trick), each side first on every
    other event; one side records a full span tree per event through
    :mod:`repro.obs`, the other runs bare.
    ``trace_overhead_ratio`` = untraced p50 / traced p50 (1.0 = free,
    0.95 = 5% overhead) is reported, not gated: tracing costs about 5% of
    a 2-3 ms event, within the run-to-run noise of this ratio.  The
    deterministic contract is ``tests/test_obs.py::
    test_trace_cost_per_event_is_independent_of_table_size`` (spans and
    annotations per traced drag equal at n and 16n, bounded bytes per
    span).  The traced side's last few traces land in
    ``TRACE_event_latency.json`` as a Perfetto-loadable artifact of the
    run itself.
    """
    table = locality_table(250_000)
    _, traced = _prepare(table)
    _, untraced = _prepare(table)
    tracer = Tracer(enabled=True, budget_ms=None, ring_size=8)

    def run_traced(event, k: int) -> float:
        trace = tracer.start("event", step=k)
        t0 = time.perf_counter()
        with use_trace(trace):
            traced.execute(changes=list(event))
        elapsed = time.perf_counter() - t0
        tracer.finish(trace)
        return elapsed

    def run_untraced(event) -> float:
        t0 = time.perf_counter()
        untraced.execute(changes=list(event))
        return time.perf_counter() - t0

    times_traced, times_untraced = [], []
    high = 990.0
    for k in range(WARMUP_EVENTS + MEASURED_EVENTS):
        high -= 0.2
        event = [SetQueryRange((0,), 5.0, high)]
        # Alternate which side runs first: with a fixed order, whatever
        # the second run of an event gains from the first (warm caches,
        # allocator state) would land in the ratio as tracing cost.
        if k % 2:
            untraced_elapsed = run_untraced(event)
            traced_elapsed = run_traced(event, k)
        else:
            traced_elapsed = run_traced(event, k)
            untraced_elapsed = run_untraced(event)
        if k >= WARMUP_EVENTS:
            times_traced.append(traced_elapsed)
            times_untraced.append(untraced_elapsed)

    p50_traced, p95_traced = _quantiles(times_traced)
    p50_untraced, p95_untraced = _quantiles(times_untraced)
    ratio = p50_untraced / p50_traced

    recent = tracer.recent_traces()
    write_chrome_trace(TRACE_ARTIFACT, recent)
    spans_per_event = sum(len(t.spans) for t in recent) / len(recent)

    high_box = [980.0]

    def one_event():
        high_box[0] -= 0.2
        trace = tracer.start("event")
        with use_trace(trace):
            result = traced.execute(
                changes=[SetQueryRange((0,), 5.0, high_box[0])])
        tracer.finish(trace)
        return result

    benchmark.pedantic(one_event, rounds=3, iterations=1)
    benchmark.extra_info.update({
        "rows": 250_000,
        "shards": SHARDS,
        "p50_traced_ms": round(p50_traced * 1e3, 3),
        "p95_traced_ms": round(p95_traced * 1e3, 3),
        "p50_untraced_ms": round(p50_untraced * 1e3, 3),
        "p95_untraced_ms": round(p95_untraced * 1e3, 3),
        "spans_per_event": round(spans_per_event, 1),
        "trace_overhead_ratio": round(ratio, 3),
    })
    # Sanity only (the ratio is reported, not gated): a catastrophic
    # overhead regression should fail loudly even in a local run.
    assert ratio >= 0.5, (
        f"tracing roughly doubled event latency: traced p50 "
        f"{p50_traced * 1e3:.2f} ms vs untraced {p50_untraced * 1e3:.2f} ms")


# --------------------------------------------------------------------------- #
# Dirty-fraction sweep: ~1 shard dirty ... all shards dirty
# --------------------------------------------------------------------------- #
def test_event_latency_dirty_fraction_sweep(benchmark):
    table = locality_table(HEADLINE_ROWS)
    sweep = {}
    for dirty_target in (1, 2, 4, 8, 16, 32):
        _, prepared = _prepare(table)
        # Position the high bound so that ~dirty_target/32 of the sorted
        # rows violate it: every event re-touches that band.
        frac = dirty_target / SHARDS
        # Clamped above the slider's low bound so the all-dirty case still
        # has room to drag (nearly every row then violates the high bound).
        start_high = max(1000.0 * (1.0 - frac) + 5.0, 8.0)
        times, feedback = _drag(
            prepared, start_high=start_high, step=0.05, events=8, warmup=4)
        report = feedback.extra["incremental"]
        p50, _ = _quantiles(times)
        observed = report["root_dirty_shards"]
        sweep[str(dirty_target)] = {
            "p50_ms": round(p50 * 1e3, 2),
            "observed_dirty": observed if observed is not None else SHARDS,
        }

    _, prepared = _prepare(table)
    high = [980.0]

    def one_event():
        high[0] -= 0.05
        return prepared.execute(changes=[SetQueryRange((0,), 5.0, high[0])])

    benchmark.pedantic(one_event, rounds=3, iterations=1)
    benchmark.extra_info.update({"per_dirty_fraction": sweep, "shards": SHARDS})
    # Latency must be monotone-ish in the dirty fraction: the 1-shard case
    # beats the all-dirty case (allowing noise headroom).
    assert sweep["1"]["p50_ms"] < sweep["32"]["p50_ms"]


if __name__ == "__main__":  # pragma: no cover - manual timing entry point
    results: dict[str, object] = {"shards": SHARDS, "cpus": os.cpu_count() or 1}
    table = locality_table(HEADLINE_ROWS)
    _, prepared = _prepare(table)
    times_inc, times_full, feedback = _interleaved_drag(
        prepared, _full_engine(table), start_high=990.0, step=0.2,
        events=MEASURED_EVENTS)
    results["report"] = copy.deepcopy(feedback.extra["incremental"])
    for label, times in (("incremental", times_inc), ("full", times_full)):
        p50, p95 = _quantiles(times)
        results[label] = {"p50_ms": round(p50 * 1e3, 2),
                          "p95_ms": round(p95 * 1e3, 2)}
        print(f"{label:12s} p50 {p50 * 1e3:7.1f} ms  p95 {p95 * 1e3:7.1f} ms")
    inc, full = results["incremental"], results["full"]
    results["p95_speedup"] = round(full["p95_ms"] / inc["p95_ms"], 2)
    print(f"p95 speedup: {results['p95_speedup']}x")
    with open("BENCH_event_latency.json", "w") as fh:
        json.dump(results, fh, indent=2)
    print("wrote BENCH_event_latency.json")
