"""Unit tests for per-shard dirty-node caching and displayed-set patching.

The differential harness (tests/test_differential.py) locks the *outputs*
down bit-for-bit; these tests lock the *mechanism* down: that interior
slider events really recompute only the dirty shards (counter-verified),
that the short-circuits engage, that invalidation (cache generations,
forgetting the sites on wholesale query changes) works, that the site
entries live and die with their prepared query, and that the service
surfaces the counters.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.shard as shard_module
from repro import PipelineConfig, QueryEngine, ScreenSpec
from repro.core.normalization import bounds_identical, reduced_bounds
from repro.core.plan import CacheStats
from repro.core.reduction import ShardCounts, rank_counts, ranks_hold
from repro.interact.events import (
    SetPercentageDisplayed,
    SetQueryRange,
    SetThreshold,
    SetWeight,
)
from repro.query.builder import Query, between, condition
from repro.query.expr import AndNode, OrNode
from repro.storage.table import Table

from reference import reference_frame


def locality_table(n: int = 20_000, seed: int = 5) -> Table:
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1000.0, n))
    a = t * 0.1 + rng.normal(0.0, 4.0, n)
    b = rng.uniform(0.0, 100.0, n)
    return Table("Local", {"t": t, "a": a, "b": b})


def locality_query(table, name="inc", high=990.0, a=20.0, b=80.0) -> Query:
    """The 5-node test query (5 plan nodes, so 5 sites)."""
    return Query(name=name, tables=[table.name], condition=AndNode([
        between("t", 50.0, high),
        OrNode([condition("a", ">", a), condition("b", "<", b)]),
    ]))


def open_peers(engine, table, count: int) -> None:
    """Open and drop ``count`` peers with distinct constants everywhere: no
    node of a peer is a node-cache hit, so each adds 5 node columns."""
    for k in range(count):
        engine.prepare(locality_query(
            table, f"peer-{k}", 900.0 - k, 21.0 + k, 79.0 - k)).execute()


def prepared_query(table, *, shards=8, percentage=0.05):
    config = PipelineConfig(
        screen=ScreenSpec(width=256, height=256),
        percentage=percentage,
        shard_count=shards,
        max_workers=2,
    )
    engine = QueryEngine(table, config)
    return engine, engine.prepare(locality_query(table))


def stats_of(engine, prepared) -> dict[str, int]:
    return engine.evaluation_cache(prepared.table).stats.as_dict()


# --------------------------------------------------------------------------- #
# Dirty-shard counters
# --------------------------------------------------------------------------- #
def test_interior_micro_move_recomputes_only_dirty_shards():
    table = locality_table()
    engine, prepared = prepared_query(table)
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 989.0)])  # warm history
    before = stats_of(engine, prepared)
    feedback = prepared.execute(changes=[SetQueryRange((0,), 50.0, 988.5)])
    after = stats_of(engine, prepared)
    report = feedback.extra["incremental"]
    assert report["shard_count"] == 8
    # The swept band sits at the top of the sorted column: strictly fewer
    # shards than the total are dirty.
    assert report["root_dirty_shards"] is not None
    assert 0 < report["root_dirty_shards"] < report["shard_count"]
    # Counter-verified: the event recomputed no more than the dirty shards
    # per patched node, and reused all the others.
    recomputed = after["shards_recomputed"] - before["shards_recomputed"]
    reused = after["shards_reused"] - before["shards_reused"]
    patched = report["patched_nodes"]
    assert patched >= 2  # the moved leaf and the root AND
    assert recomputed <= patched * report["root_dirty_shards"]
    assert recomputed + reused == patched * report["shard_count"]
    assert after["bounds_shortcircuits"] > before["bounds_shortcircuits"]
    assert after["displayed_patches"] > before["displayed_patches"]


def test_each_wave_hands_at_most_one_block_to_the_pool(monkeypatch):
    """Counted dispatch: a wave of per-shard work costs one pool hand-off
    per pool thread beyond the caller, however many shards it covers.

    With 2 threads, every wave -- of a 32-shard cold execute and of a
    2-dirty-shard drag -- submits at most one future.  A wave is one
    submitted callable; the spy keeps each alive so their ids stay
    distinct.
    """
    from repro.core.shard import ShardedTable, shared_executor

    pool = shared_executor(2)
    submitted = []
    submit = pool.submit

    def spy(fn, *args, **kwargs):
        submitted.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(pool, "submit", spy)

    def futures_per_wave() -> int:
        per_wave = Counter(map(id, submitted))
        submitted.clear()
        return max(per_wave.values(), default=0)

    table = locality_table()
    # The drag sweeps the t values on both sides of the last shard
    # boundary, so exactly shards 30 and 31 are dirty.
    boundary = float(table.column("t")[ShardedTable(table, 32).bounds[31][0]])
    engine = QueryEngine(table, PipelineConfig(
        screen=ScreenSpec(width=256, height=256), percentage=0.05,
        shard_count=32, max_workers=2, backend="threads"))
    try:
        prepared = engine.prepare(locality_query(table, high=boundary + 0.5))
        prepared.execute()
        assert futures_per_wave() == 1
        prepared.execute(changes=[SetQueryRange((0,), 50.0, boundary + 0.4)])
        futures_per_wave()
        report = prepared.execute(changes=[SetQueryRange(
            (0,), 50.0, boundary - 0.4)]).extra["incremental"]
        assert report["root_dirty_shards"] == 2
        assert futures_per_wave() == 1
    finally:
        engine.close()


def two_shard_move_work(monkeypatch, n: int) -> list[tuple]:
    """Chunk work of micro-moves that dirty the last two shards, 1000 rows
    a shard.

    Each drag step sweeps t values on both sides of the last shard
    boundary.  Counted per event: dirty root shards, patched nodes, the
    chunks the patches replaced (``chunks_patched``) and aliased
    (``chunks_shared``), and the rows ``ChunkedColumn.materialize`` was
    asked for.
    """
    from repro.core.chunks import ChunkedColumn
    from repro.core.shard import ShardedTable

    asked: list[int] = []
    materialize = ChunkedColumn.materialize

    def counted(self):
        asked.append(len(self))
        return materialize(self)

    monkeypatch.setattr(ChunkedColumn, "materialize", counted)
    table = locality_table(n=n)
    shards = n // 1000
    boundary = float(table.column("t")[ShardedTable(table, shards).bounds[-1][0]])
    engine, _ = prepared_query(table, shards=shards)
    prepared = engine.prepare(locality_query(table, high=boundary + 2.0))
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, boundary + 1.5)])
    work = []
    for high in (boundary - 1.5, boundary + 1.0, boundary - 1.0):
        asked.clear()
        frame = prepared.execute(changes=[SetQueryRange((0,), 50.0, high)])
        report = frame.extra["incremental"]
        work.append((report["root_dirty_shards"], report["patched_nodes"],
                     report["chunks_patched"], report["chunks_shared"],
                     sum(asked)))
    monkeypatch.undo()
    np.testing.assert_array_equal(frame.display_order,
                                  reference_frame(table, prepared).display_order)
    return work


def test_two_dirty_shard_move_copies_chunks_independent_of_table_size(
        monkeypatch):
    """A 2-dirty-shard micro-move replaces the same chunks at n and 16n
    rows and never materializes a column.

    Columns are chunked on the shard grid, so each patched column (the
    moved leaf's signed, raw, mask and normalized columns, the root's
    combined, mask and normalized ones: 7) replaces one chunk per dirty
    shard and aliases every other shard's chunk.
    """
    small = two_shard_move_work(monkeypatch, 4_000)
    large = two_shard_move_work(monkeypatch, 64_000)
    assert small == [(2, 2, 14, 7 * 2, 0)] * 3
    assert large == [(2, 2, 14, 7 * 62, 0)] * 3


def patch_bindings(monkeypatch, name: str, replacement) -> None:
    """Replace ``name`` in every ``repro`` module that bound it by import."""
    original = getattr(shard_module, name)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, replacement)


def counting_rank_counts(monkeypatch) -> list[int]:
    """Rows handed to ``rank_counts`` from here on, one entry per call."""
    rows: list[int] = []

    def counted(values, pivots):
        rows.append(len(values))
        return rank_counts(values, pivots)

    patch_bindings(monkeypatch, "rank_counts", counted)
    return rows


def count_recounts(monkeypatch, seen) -> None:
    """Call ``seen(params, i)`` for every shard ``i`` that
    ``refresh_statistic`` recounts, ``params`` being the statistic's."""
    refresh = shard_module.refresh_statistic

    def counted_refresh(state, params, column, source, ranks, recount, *rest,
                        **kwargs):
        def counted_recount(state, i):
            seen(params, i)
            return recount(state, i)
        return refresh(state, params, column, source, ranks, counted_recount,
                       *rest, **kwargs)

    patch_bindings(monkeypatch, "refresh_statistic", counted_refresh)


def certified_event_work(monkeypatch, n: int, percentage) -> list[tuple]:
    """Work per certified micro-move on an ``n``-row table, 1000 rows a shard.

    Counted at ``rank_counts`` (rows handed to it, wherever a ``repro``
    module bound it) and at the recount callback of
    ``refresh_statistic``, the one reuse/patch/rebuild step of all four
    statistics (shards it recounted, node bounds included).  Every move
    stays inside the last shard at both sizes the caller compares, so the
    dirty set is one shard at either size.
    """
    rows, recounted = counting_rank_counts(monkeypatch), []
    count_recounts(monkeypatch, lambda params, i: recounted.append(i))
    table = locality_table(n=n)
    engine, prepared = prepared_query(table, shards=n // 1000,
                                      percentage=percentage)
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 996.0)])
    before = stats_of(engine, prepared)
    work = []
    for high in (995.0, 994.0, 993.0, 992.0):
        rows.clear()
        recounted.clear()
        report = prepared.execute(
            changes=[SetQueryRange((0,), 50.0, high)]).extra["incremental"]
        work.append((report["root_dirty_shards"], report["patched_nodes"],
                     sum(rows), len(recounted)))
    after = stats_of(engine, prepared)
    certified = ("displayed_patches" if percentage is not None
                 else "quantile_certified")
    assert after[certified] - before[certified] == 4
    assert after["bounds_shortcircuits"] - before["bounds_shortcircuits"] == 8
    # A no-op replay -- no event, or the slider set to the value it has --
    # counts no row, recounts no shard and recomputes or patches no chunk.
    for changes in ([], [SetQueryRange((0,), 50.0, 992.0)]):
        rows.clear()
        recounted.clear()
        before = stats_of(engine, prepared)
        prepared.execute(changes=changes)
        after = stats_of(engine, prepared)
        assert rows == recounted == []
        for counter in ("shards_recomputed", "chunks_patched"):
            assert after[counter] == before[counter]
    monkeypatch.undo()
    return work


@pytest.mark.parametrize("percentage", [0.005, None],
                         ids=["percentage", "quantile"])
def test_certified_events_recount_rows_independent_of_table_size(
        monkeypatch, percentage):
    """A certified micro-move counts the same rows at n and at 16n rows.

    Rows per shard are held at 1000, so the 16x table has 16x the shards;
    each certificate (the moved leaf's and the root's bounds, then the
    displayed set or the quantile) recounts the one dirty shard and sums
    cached rows for the rest.  Recounting every shard would scale with n.
    A no-op replay does no counted work at either size.
    """
    small = certified_event_work(monkeypatch, 4_000, percentage)
    large = certified_event_work(monkeypatch, 64_000, percentage)
    assert small == large
    assert all(dirty == 1 and patched == 2 and rows > 0
               for dirty, patched, rows, _ in small)


def root_weight_move_work(monkeypatch, n: int) -> tuple:
    """One root weight move on an ``n``-row table, 1000 rows a shard.

    About 30 % of rows are exact answers and the display is 1 %, so the
    root's ``d_max`` lies in the tie block at 0 before and after the move
    doubles ``keep``.  Counted: rows handed to ``rank_counts``, shards
    ``refresh_statistic`` recounted, and the bounds short-circuits.
    """
    rows, recounted = counting_rank_counts(monkeypatch), []
    count_recounts(monkeypatch, lambda params, i: recounted.append(i))
    table = locality_table(n=n)
    config = PipelineConfig(screen=ScreenSpec(width=256, height=256),
                            percentage=0.01, shard_count=n // 1000,
                            max_workers=2)
    engine = QueryEngine(table, config)
    prepared = engine.prepare(Query(
        name="ties", tables=[table.name], condition=AndNode([
            between("a", 20.0, 70.0), condition("b", "<", 60.0)])))
    prepared.execute()
    before = stats_of(engine, prepared)["bounds_shortcircuits"]
    rows.clear()
    recounted.clear()
    frame = prepared.execute(changes=[SetWeight((), 0.5)])
    work = (sum(rows), len(recounted),
            stats_of(engine, prepared)["bounds_shortcircuits"] - before)
    monkeypatch.undo()
    assert prepared._root.sites[()].columns.normalization.value == (0.0, 0.0)
    np.testing.assert_array_equal(frame.display_order,
                                  reference_frame(table, prepared).display_order)
    return work


def test_root_weight_move_under_unchanged_bounds_recounts_nothing(
        monkeypatch):
    """A weight move whose bounds stay in the tie block certifies them with
    no counting row, at n and at 16n rows: ``keep`` enters the
    certificate's ranks, which the cached rows still prove.

    Treating the new ``keep`` as new parameters would recount all n rows.
    """
    assert root_weight_move_work(monkeypatch, 4_000) == (0, 0, 1)
    assert root_weight_move_work(monkeypatch, 64_000) == (0, 0, 1)


def counting_selection_kernels(monkeypatch) -> list[int]:
    """Rows handed to ``np.partition`` / ``np.argpartition`` from here on,
    on any thread, one entry per call."""
    handed: list[int] = []

    def counting(kernel):
        def counted(a, *args, **kwargs):
            handed.append(np.size(a))
            return kernel(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(np, "partition", counting(np.partition))
    monkeypatch.setattr(np, "argpartition", counting(np.argpartition))
    return handed


def tie_table(n: int) -> Table:
    """``t`` sorted over [0, 1000), ``b`` uniform over [0, 100)."""
    rng = np.random.default_rng(11)
    return Table("Ties", {"t": np.sort(rng.uniform(0.0, 1000.0, n)),
                          "b": rng.uniform(0.0, 100.0, n)})


def tie_query(table: Table) -> Query:
    """About 95 % of rows are exact answers (distance 0)."""
    return Query(name="ties", tables=[table.name], condition=AndNode(
        [between("t", 0.0, 1000.0), condition("b", "<", 95.0)]))


def heavy_tie_work(monkeypatch, n: int, target: int = 20) -> list[tuple]:
    """Displayed-set rows per event on an ``n``-row table where ~95 % of
    rows are exact answers (distance 0), 1000 rows a shard, ``target``
    fixed.

    The threshold sits inside the block of zeros at every event.  Counted
    per event: rows the displayed state holds in its per-shard pieces,
    rows handed to a selection kernel (``np.partition`` /
    ``np.argpartition``), and rows strictly below the threshold.
    """
    handed = counting_selection_kernels(monkeypatch)
    table = tie_table(n)
    shards = n // 1000
    config = PipelineConfig(screen=ScreenSpec(width=256, height=256),
                            percentage=target / n, shard_count=shards,
                            max_workers=2, backend="threads")
    prepared = QueryEngine(table, config).prepare(tie_query(table))
    events = [[], [SetQueryRange((0,), 0.0, 999.0)],
              [SetPercentageDisplayed(2 * target / n)],
              [SetQueryRange((0,), 0.0, 998.0)]]
    work = []
    for changes in events:
        handed.clear()
        feedback = prepared.execute(changes=changes)
        selected = sum(handed)
        state = prepared._root.displayed
        held = sum(len(below) + len(ties) for below, ties in state.pieces)
        below = int(state.counts.rows[:, 1].sum())
        # Counting rows stay exact, however short the tie lists are cut.
        column = np.where(np.isfinite(state.source), state.source, np.inf)
        edges = np.cumsum(state.counts.rows[:-1, 0]).astype(int)
        np.testing.assert_array_equal(state.counts.rows[:, 1:], [
            (np.count_nonzero(part < state.threshold),
             np.count_nonzero(part <= state.threshold))
            for part in np.split(column, edges)])
        bound = shards * round(prepared.config.percentage * n) + below
        assert held <= bound
        assert feedback.statistics.num_results >= 0.9 * n
        np.testing.assert_array_equal(feedback.display_order,
                                      reference_frame(table, prepared).display_order)
        work.append((held / shards, selected, below,
                     feedback.extra["incremental"]["root_dirty_shards"]))
    patches = prepared.engine.evaluation_cache(table).stats.displayed_patches
    monkeypatch.undo()
    assert patches == 2
    return work


def test_heavy_ties_hold_bounded_rows_independent_of_table_size(monkeypatch):
    """With the threshold inside a tie block of ~0.95n rows, a rebuild (cold
    open, percentage change) and a certified micro-move keep at most
    S * target + below rows, the same per shard at n and at 16n rows, and
    hand no row to a selection kernel.

    Keeping every tie would hold ~950 rows a shard instead of ``target``.
    """
    small = heavy_tie_work(monkeypatch, 4_000)
    large = heavy_tie_work(monkeypatch, 64_000)
    assert small == large
    # Rebuilds find the threshold in the tie block; micro-moves patch one
    # dirty shard.
    assert [(rows, dirty) for _, rows, _, dirty in small] == [
        (0, None), (0, 1), (0, 0), (0, 1)]


def broad_display_work(monkeypatch, n: int) -> tuple:
    """One micro-move at a 40 % display on the tie table, 1000 rows a shard.

    Counted: the shards the displayed-set refresh cuts again (each one
    shard's rows) and the rows handed to a selection kernel.
    """
    recut: list[int] = []
    count_recounts(monkeypatch, lambda params, i: (
        recut.append(i) if params[:1] == ("percentage",) else None))
    table = tie_table(n)
    config = PipelineConfig(screen=ScreenSpec(width=256, height=256),
                            percentage=0.4, shard_count=n // 1000,
                            max_workers=2, backend="threads")
    prepared = QueryEngine(table, config).prepare(tie_query(table))
    prepared.execute()
    stats = prepared.engine.evaluation_cache(table).stats
    before = stats.displayed_patches
    handed = counting_selection_kernels(monkeypatch)
    recut.clear()
    feedback = prepared.execute(changes=[SetQueryRange((0,), 0.0, 999.0)])
    work = (stats.displayed_patches - before, len(recut),
            feedback.extra["incremental"]["root_dirty_shards"], sum(handed))
    monkeypatch.undo()
    np.testing.assert_array_equal(feedback.display_order,
                                  reference_frame(table, prepared).display_order)
    return work


def test_broad_display_micro_move_recuts_only_its_dirty_shard(monkeypatch):
    """At a 40 % display a micro-move patches the displayed set: it cuts
    only the one dirty shard's rows again and hands no row to a selection
    kernel, at n and at 16n rows.

    Selecting over the whole column would hand n rows per event.
    """
    small = broad_display_work(monkeypatch, 4_000)
    large = broad_display_work(monkeypatch, 64_000)
    # (displayed patches, shards recut, dirty root shards, rows selected)
    assert small == large == (1, 1, 1, 0)


def bounds_selection_work(monkeypatch, n: int) -> list[list[tuple]]:
    """Rows each node's bounds resolve hands to ``np.partition`` /
    ``np.argpartition``, per event, on an ``n``-row table where ~95 % of
    rows are exact answers (distance 0), 1000 rows a shard.

    Events: a cold open, then a weight change that moves the root's
    column and so forces its resolve.  Per resolve: whether ``keep`` is
    below the finite count (a selection is due), whether the ``keep``-th
    value lies in the tie block at the minimum, and the rows handed to a
    selection kernel on the resolving thread.
    """
    local = threading.local()
    resolves: list[tuple] = []

    def counting(kernel):
        def counted(a, *args, **kwargs):
            if getattr(local, "rows", None) is not None:
                local.rows += np.size(a)
            return kernel(a, *args, **kwargs)
        return counted

    def resolve(values, keep):
        local.rows = 0
        try:
            bounds = reduced_bounds(values, keep)
        finally:
            rows, local.rows = local.rows, None
        finite = values[np.isfinite(values)]
        in_tie = np.count_nonzero(finite == finite.min()) >= keep
        resolves.append((keep < len(finite), bool(in_tie), rows))
        return bounds

    monkeypatch.setattr(np, "partition", counting(np.partition))
    monkeypatch.setattr(np, "argpartition", counting(np.argpartition))
    monkeypatch.setattr(shard_module, "reduced_bounds", resolve)
    table = tie_table(n)
    config = PipelineConfig(screen=ScreenSpec(width=256, height=256),
                            percentage=20 / n, shard_count=n // 1000,
                            max_workers=2, backend="threads")
    prepared = QueryEngine(table, config).prepare(tie_query(table))
    work = []
    for changes in ([], [SetWeight((1,), 0.05)]):
        resolves.clear()
        feedback = prepared.execute(changes=changes)
        assert feedback.statistics.num_results >= 0.9 * n
        np.testing.assert_array_equal(feedback.display_order,
                                      reference_frame(table, prepared).display_order)
        work.append(list(resolves))
    monkeypatch.undo()
    return work


def test_bounds_resolve_hands_no_rows_to_selection_under_ties(monkeypatch):
    """Every node's ``keep``-th value lies in the block of exact answers,
    so no resolve partitions anything, at n and at 16n rows alike.

    A selection over the whole column would hand n rows per node.
    """
    small = bounds_selection_work(monkeypatch, 4_000)
    large = bounds_selection_work(monkeypatch, 64_000)
    assert small == large
    cold, weight = small
    assert len(cold) == 3 and weight  # every node opens cold; then a resolve
    assert all(due and in_tie and rows == 0 for due, in_tie, rows in cold + weight)


@pytest.mark.parametrize("shards", [1, 4])
def test_range_patch_on_int64_column_matches_cold(shards):
    """Range drags on a column supplied as int64 go through the row patch
    (which gathers the changed rows, then converts only those to float) and
    stay bit-identical to the naive reference, at one shard and at several."""
    n = 6_000
    table = Table("Ticks", {
        "k": np.arange(n, dtype=np.int64) * 3,
        "b": np.random.default_rng(3).uniform(0.0, 100.0, n),
    })
    config = PipelineConfig(screen=ScreenSpec(width=64, height=64),
                            percentage=0.05, shard_count=shards, max_workers=2)
    root = AndNode([between("k", 300.0, 15_000.0), condition("b", "<", 80.0)])
    prepared = QueryEngine(table, config).prepare(
        Query(name="ticks", tables=[table.name], condition=root))
    prepared.execute()
    before = prepared.cache_stats
    for high in (14_990.0, 14_981.0, 17_000.0, 14_000.0):
        feedback = prepared.execute(changes=[SetQueryRange((0,), 300.0, high)])
        cold = reference_frame(table, prepared)
        np.testing.assert_array_equal(feedback.display_order, cold.display_order)
        for path in ((), (0,)):
            ours, theirs = feedback.node_feedback[path], cold.node_feedback[path]
            np.testing.assert_array_equal(ours.raw_distances, theirs.raw_distances)
            np.testing.assert_array_equal(ours.exact_mask, theirs.exact_mask)
        np.testing.assert_array_equal(feedback.node_feedback[(0,)].signed_distances,
                                      cold.node_feedback[(0,)].signed_distances)
    # The moves really went through the copy-on-write row patch.
    assert prepared.cache_stats["chunks_patched"] > before["chunks_patched"]


def test_untouched_subtree_serves_from_node_cache():
    table = locality_table(n=8_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    feedback = prepared.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    report = feedback.extra["incremental"]
    # The OR subtree (3 nodes) is untouched by a move of the "t" leaf.
    assert report["cached_nodes"] >= 3
    assert report["nodes"] == 5


def test_weight_move_back_and_forth_reuses_whole_column():
    """A weight change that returns to a previous value hits the node LRU;
    a fresh weight with unchanged raw columns patches with zero dirty."""
    table = locality_table(n=8_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    before = stats_of(engine, prepared)
    prepared.execute(changes=[SetWeight((0,), 0.7)])
    mid = stats_of(engine, prepared)
    # Raw columns untouched: no leaf recomputation happened.
    assert mid["leaf_misses"] == before["leaf_misses"]
    prepared.execute(changes=[SetWeight((0,), 1.0)])  # back to the original
    after = stats_of(engine, prepared)
    assert after["leaf_misses"] == before["leaf_misses"]


def test_percentage_change_falls_back_cleanly():
    """A percentage event changes the capacity (every value key): the next
    event must fall back to full recomputes, then resume patching."""
    table = locality_table(n=8_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    prepared.execute(changes=[SetPercentageDisplayed(0.1)])
    before = stats_of(engine, prepared)
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 984.0)])
    after = stats_of(engine, prepared)
    # Patching resumed after one full round under the new capacity.
    assert after["slice_hits"] > before["slice_hits"]


# --------------------------------------------------------------------------- #
# Invalidation
# --------------------------------------------------------------------------- #
def test_slice_cache_generation_invalidation(monkeypatch):
    """An evaluation that started before `EvaluationCache.clear()` cannot
    leave a usable entry behind: the event after the clear is cold."""
    table = locality_table(n=4_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    cache = engine.evaluation_cache(prepared.table)
    record = cache.record

    def clear_mid_evaluation(**counts) -> None:
        record(**counts)
        if "incremental_events" in counts:
            cache.clear()  # the evaluation has already read the old generation

    monkeypatch.setattr(cache, "record", clear_mid_evaluation)
    frame = prepared.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    monkeypatch.undo()
    np.testing.assert_array_equal(
        frame.display_order, reference_frame(table, prepared).display_order)
    assert len(prepared._root.sites) == 5
    assert all(entry.generation != cache.generation
               for entry in prepared._root.sites.values())
    before = cache.stats.as_dict()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 984.0)])
    assert cache.stats.as_dict()["slice_hits"] == before["slice_hits"]


def test_peers_never_evict_a_live_sessions_base():
    """However many peers open on the engine (here 13 x 5 sites), a live
    session keeps its own site entries: its next micro-move patches."""
    table = locality_table(n=4_000)
    engine, first = prepared_query(table)
    first.execute()  # 5 plan nodes -> 5 site entries
    open_peers(engine, table, 64 // 5 + 1)
    before = stats_of(engine, first)
    first.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    assert stats_of(engine, first)["slice_hits"] > before["slice_hits"]


def test_session_opened_from_the_node_cache_patches_its_first_drag():
    """A session whose open is served wholly from the node cache (a peer
    opened the same query first) leaves site entries at those columns, so
    its first micro-drag patches: no `node.evaluate` span declines."""
    from repro.obs import Trace, use_trace

    table = locality_table(n=9_000)
    engine, first = prepared_query(table)
    first.execute()
    second = engine.prepare(locality_query(table, "second"))
    before = stats_of(engine, second)
    second.execute()
    assert stats_of(engine, second)["node_misses"] == before["node_misses"]
    before = stats_of(engine, second)
    trace = Trace("event", trace_id=1)
    with use_trace(trace):
        frame = second.execute(changes=[SetQueryRange((0,), 50.0, 989.0)])
    assert [s.attrs for s in trace.spans if s.name == "node.evaluate"
            and "patch_declined" in (s.attrs or {})] == []
    assert stats_of(engine, second)["slice_hits"] > before["slice_hits"]
    np.testing.assert_array_equal(
        frame.display_order, reference_frame(table, second).display_order)


def test_cache_open_across_shard_counts_matches_reference():
    """Node columns carry per-shard summaries of the partitioning that built
    them; a query on another shard count that opens from them must not
    patch against those summaries, and says so on `node.evaluate`."""
    from repro.obs import Trace, use_trace

    table = locality_table(n=6_000)
    engine, first = prepared_query(table, shards=4)
    first.execute()
    second = engine.prepare(locality_query(table, "second"), shard_count=8)
    second.execute()
    for high, declined in ((989.0, {"params-changed"}), (988.0, set())):
        trace = Trace("event", trace_id=1)
        with use_trace(trace):
            frame = second.execute(changes=[SetQueryRange((0,), 50.0, high)])
        assert {s.attrs["state_declined"] for s in trace.spans
                if s.name == "node.evaluate"
                and "state_declined" in (s.attrs or {})} == declined
        cold = reference_frame(table, second)
        np.testing.assert_array_equal(frame.display_order, cold.display_order)
        np.testing.assert_array_equal(frame.node_feedback[()].normalized_distances,
                                      cold.node_feedback[()].normalized_distances)


def test_dropped_query_pins_nothing():
    """A dropped prepared query's site entries go with it: once the node LRU
    has evicted its columns, nothing keeps them alive."""
    table = locality_table(n=4_000)
    engine, first = prepared_query(table)
    engine.cache_budget_bytes = 0  # the smallest node LRU: 8 entries
    frame = first.execute()
    root = weakref.ref(frame.node_feedback[()].normalized_distances)
    del frame, first
    bound = engine.evaluation_cache(table)._nodes.max_entries
    open_peers(engine, table, bound // 5 + 1)
    gc.collect()
    assert root() is None


def test_dropped_query_frees_its_sites_without_the_cycle_collector():
    """An execution builds no reference cycle, so a dropped query's site
    entries (and the columns they point at) go with its last reference,
    not whenever the cyclic collector next runs."""
    table = locality_table(n=4_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    entries = [weakref.ref(e) for e in prepared._root.sites.values()]
    assert entries
    gc.disable()
    try:
        del prepared
        assert [ref() for ref in entries] == [None] * len(entries)
    finally:
        gc.enable()


def test_declined_patches_are_annotated_with_a_reason():
    """`node.evaluate` spans say why a node did not patch."""
    from repro.obs import Trace, use_trace

    table = locality_table(n=9_000)
    engine, prepared = prepared_query(table)

    def declined(*changes) -> dict[str, str]:
        trace = Trace("event", trace_id=1)
        with use_trace(trace):
            prepared.execute(changes=list(changes))
        return {
            s.attrs["node"]: s.attrs["patch_declined"]
            for s in trace.spans
            if s.name == "node.evaluate" and "patch_declined" in (s.attrs or {})
        }

    # Cold: no site has an entry (an offloading backend computes the cold
    # plan whole, and the walk then declines nothing: all node-cache hits).
    assert set(declined().values()) <= {"no-entry"}
    # Micro-moves patch: nothing to explain.
    assert declined(SetQueryRange((0,), 50.0, 989.0)) == {}
    assert declined(SetQueryRange((0,), 50.0, 988.0)) == {}
    # A move over more than a third of the rows recomputes the raw columns
    # in full; the dirty set still propagates, so the root is not declined.
    assert declined(SetQueryRange((0,), 50.0, 400.0)) == {"(0,)": "band-too-wide"}
    # A threshold move has no index-backed delta: the leaf's entry is no
    # base, and its ancestors see a child without a delta.
    assert declined(SetThreshold((1, 0), 25.0)) == {
        "(1, 0)": "base-mismatch", "(1,)": "base-mismatch", "()": "base-mismatch"}


def test_wholesale_query_change_forgets_the_sites():
    table = locality_table(n=4_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    sites = prepared._root.sites
    assert len(sites) == 5
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    assert prepared._root.sites is sites  # parameter moves keep the sites
    assert len(sites) == 5
    prepared.query.condition = AndNode([
        between("t", 100.0, 500.0), condition("b", "<", 60.0),
    ])
    prepared.refresh()
    assert prepared._root.sites == {}  # new shape: no entry survives
    prepared.execute()
    assert set(prepared._root.sites) == {(), (0,), (1,)}


def test_evaluation_cache_clear_drops_slices():
    table = locality_table(n=4_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    cache = engine.evaluation_cache(prepared.table)
    cache.clear()
    before = cache.stats.as_dict()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 984.0)])
    after = cache.stats.as_dict()
    # Nothing to patch after a wholesale clear: the event fell back to
    # full recomputes (counters survive the clear by design).
    assert after["slice_hits"] == before["slice_hits"]


def test_bounds_identical_nan_and_zero_semantics():
    assert bounds_identical(None, None)
    assert not bounds_identical(None, (0.0, 1.0))
    assert bounds_identical((0.0, float("nan")), (0.0, float("nan")))
    assert not bounds_identical((0.0, 1.0), (0.0, 2.0))
    assert bounds_identical((-0.0, 1.0), (0.0, 1.0))  # == semantics


# Shard slices of a distance column: a few repeated levels (so pivots tie
# with values), arbitrary finite values, NaN and +-inf; empty shards too.
shard_values = arrays(np.float64, st.integers(0, 30), elements=st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 2.0, 7.5]),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([np.nan, np.inf, -np.inf]),
))
pivot_values = st.one_of(st.sampled_from([1.0, 2.0, np.nan, np.inf, -np.inf]),
                         st.floats(-10.0, 10.0, allow_nan=False))


@given(shard_values, st.lists(pivot_values, max_size=2))
def test_rank_counts_match_brute_force(values, pivots):
    """A shard's counting row is its finite count, then ``(count < v,
    count <= v)`` over its finite values for each pivot ``v``; a shard with
    no finite value (empty or all NaN / +-inf) is the counting identity."""
    finite = [v for v in values.tolist() if np.isfinite(v)]
    expected = [len(finite)]
    for v in pivots:
        expected += [sum(x < v for x in finite), sum(x <= v for x in finite)]
    row = rank_counts(values, pivots)
    assert row == tuple(float(x) for x in expected)
    if not finite:
        assert row == (0.0,) * (1 + 2 * len(pivots))


@given(st.lists(shard_values, min_size=1, max_size=4), st.data())
def test_ranks_hold_matches_sorted_ranks(shards, data):
    """Summed rows prove ``v`` is the rank-``k`` order statistic exactly
    when the sorted finite values have ``v`` at position ``k``."""
    column = np.concatenate(shards)
    ordered = np.sort(column[np.isfinite(column)])
    ranks = data.draw(st.lists(st.integers(0, max(len(ordered) - 1, 0)),
                               max_size=2 if len(ordered) else 0))
    pivots = [data.draw(st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.integers(max(k - 1, 0), min(k + 1, len(ordered) - 1)).map(
            lambda j: float(ordered[j])))) for k in ranks]
    totals = np.sum([rank_counts(s, pivots) for s in shards], axis=0)
    assert ranks_hold(totals, ranks) == all(
        ordered[k] == v for k, v in zip(ranks, pivots))


def test_shard_counts_certify_each_rank_and_the_count():
    """``v`` holds rank ``k`` iff ``count(< v) <= k < count(<= v)``, summed
    over the shards; a changed ranked count refutes the certificate too.
    The ranks are the caller's: the same rows certify other ranks."""
    shards = [np.array([5.0, 1.0, 9.0]), np.array([3.0, 3.0, np.nan]),
              np.array([7.0, 2.0])]
    column = np.concatenate(shards)
    finite = np.sort(column[np.isfinite(column)])          # 1 2 3 3 5 7 9
    pivots, ranks = (finite[2], finite[5]), (2, 5)
    counts = ShardCounts(pivots, len(finite), np.asarray(
        [rank_counts(s, pivots) for s in shards], dtype=float))
    # Nothing recounted: the rows certify themselves; rank 3 also holds 3.
    assert counts.patched([], [], ranks) is not None
    assert counts.patched([], [], (3, 5)) is not None
    assert counts.patched([], [], (4, 5)) is None
    # A dirty shard whose change keeps both ranks in place certifies ...
    kept = counts.patched(
        [0], [rank_counts(np.array([7.0, 1.0, 9.0]), pivots)], ranks)
    assert kept is not None and kept.rows[0].tolist() == [3.0, 1.0, 1.0, 1.0, 2.0]
    assert counts.rows[0].tolist() == [3.0, 1.0, 1.0, 2.0, 2.0]  # untouched
    # ... one that moves a pivot's rank, or the ranked count, does not.
    assert counts.patched(
        [0], [rank_counts(np.array([0.0, 0.5, 9.0]), pivots)], ranks) is None
    # (A new finite value above both pivots keeps their ranks, but the
    # ranks were derived from the old count.)
    assert counts.patched(
        [1], [rank_counts(np.array([3.0, 3.0, 99.0]), pivots)], ranks) is None
    # No pivot and no count: the rows are plain per-shard sums.
    popcounts = ShardCounts((), None, np.array([[2.0], [0.0]]))
    assert popcounts.patched([1], [(5.0,)], ()).rows.sum() == 7.0


def test_cache_stats_dict_has_incremental_counters():
    stats = CacheStats().as_dict()
    for key in ("slice_hits", "slice_misses", "shards_recomputed",
                "shards_reused", "bounds_shortcircuits", "displayed_patches",
                "incremental_events"):
        assert key in stats


# --------------------------------------------------------------------------- #
# Displayed-set / relevance reuse
# --------------------------------------------------------------------------- #
def test_noop_reexecution_reuses_displayed_and_relevance():
    table = locality_table(n=8_000)
    engine, prepared = prepared_query(table)
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    first = prepared.execute()
    second = prepared.execute()
    # Identical column identity: the displayed set is reused, and the
    # relevance derived from the same column is equal and frozen.
    np.testing.assert_array_equal(second.display_order, first.display_order)
    np.testing.assert_array_equal(second.relevance, first.relevance)
    assert not second.relevance.flags.writeable


def test_relevance_is_computed_on_read_only(monkeypatch):
    """No event pays for the relevance column; reading it costs one call.

    Counted at ``relevance_factors``, the symbol ``QueryFeedback.relevance``
    calls, wherever a module bound it.  A service session that drags and
    pulls a delta after every event never reads it; the one read is checked
    against ``relevance_factors`` evaluated here, for every scale and for a
    non-default ``target_max``.
    """
    from repro.core.relevance import RelevanceScale, relevance_factors
    from repro.service import ServiceSession, delta_payload
    from repro.vis.layout import MultiWindowLayout

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return relevance_factors(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "relevance_factors", None) is relevance_factors):
            monkeypatch.setattr(module, "relevance_factors", counted)
    table = locality_table(n=8_000)
    _, prepared = prepared_query(table)
    session = ServiceSession(
        "s", prepared,
        layout=MultiWindowLayout(window_width=24, window_height=24))
    previous = session.execute_batch([])
    for k in range(20):
        frame = session.execute_batch(
            [SetQueryRange((0,), 50.0, 985.0 - 0.5 * k)])
        delta_payload(previous, frame)
        previous = frame
    assert calls == []

    for scale in RelevanceScale:
        for target_max in (255.0, 100.0):
            config = prepared.config.with_(relevance_scale=scale,
                                           target_max=target_max)
            feedback = QueryEngine(table, config).prepare(
                locality_query(table)).execute()
            before = len(calls)
            relevance = feedback.relevance
            assert feedback.relevance is relevance
            assert len(calls) == before + 1
            assert not relevance.flags.writeable
            np.testing.assert_array_equal(relevance, relevance_factors(
                np.asarray(feedback.overall.normalized_distances),
                scale, target_max))


def test_displayed_patch_survives_threshold_shift():
    """When the target-th smallest value moves, the patch certificate must
    fail and the full rebuild must produce the exact new set."""
    table = locality_table(n=8_000)
    engine, prepared = prepared_query(table, percentage=0.02)
    prepared.execute()
    prepared.execute(changes=[SetQueryRange((0,), 50.0, 985.0)])
    # Collapse the range onto a tiny band: almost every distance changes
    # and the displayed threshold moves by a lot.
    collapsed = prepared.execute(changes=[SetQueryRange((0,), 400.0, 410.0)])
    cold = reference_frame(table, prepared)
    np.testing.assert_array_equal(collapsed.display_order, cold.display_order)
