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
import weakref

import numpy as np
import pytest

from repro import PipelineConfig, QueryEngine, ScreenSpec
from repro.core.normalization import bounds_identical
from repro.core.plan import CacheStats
from repro.core.reduction import (
    merge_topk_candidates,
    merge_topk_candidates_many,
    resolve_topk,
    topk_candidates,
)
from repro.core.shard import (
    _shard_summary,
    distance_bounds_partial,
    merge_distance_bounds,
    merge_distance_bounds_many,
    resolve_distance_bounds,
)
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
    record = cache.record_incremental_event

    def clear_mid_evaluation() -> None:
        record()
        cache.clear()  # the evaluation has already read the old generation

    monkeypatch.setattr(cache, "record_incremental_event", clear_mid_evaluation)
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
    patch against those summaries."""
    table = locality_table(n=6_000)
    engine, first = prepared_query(table, shards=4)
    first.execute()
    second = engine.prepare(locality_query(table, "second"), shard_count=8)
    second.execute()
    for high in (989.0, 988.0):
        frame = second.execute(changes=[SetQueryRange((0,), 50.0, high)])
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


# --------------------------------------------------------------------------- #
# Merge-algebra additions
# --------------------------------------------------------------------------- #
def test_merge_distance_bounds_many_matches_pairwise():
    rng = np.random.default_rng(11)
    values = rng.uniform(0.0, 50.0, 997)
    values[rng.random(997) < 0.1] = np.nan
    pieces = np.array_split(values, 7)
    partials = [distance_bounds_partial(p, 40) for p in pieces]
    pairwise = partials[0]
    for partial in partials[1:]:
        pairwise = merge_distance_bounds(pairwise, partial)
    many = merge_distance_bounds_many(partials)
    for keep in (1, 7, 40):
        assert resolve_distance_bounds(pairwise, keep) == \
            resolve_distance_bounds(many, keep)


def test_merge_topk_candidates_many_matches_pairwise():
    rng = np.random.default_rng(13)
    values = np.round(rng.uniform(0.0, 20.0, 500))  # force ties
    pieces = np.array_split(values, 5)
    offsets = np.cumsum([0] + [len(p) for p in pieces[:-1]])
    partials = [
        topk_candidates(piece, 60, offset=int(off))
        for piece, off in zip(pieces, offsets)
    ]
    pairwise = partials[0]
    for partial in partials[1:]:
        pairwise = merge_topk_candidates(pairwise, partial)
    many = merge_topk_candidates_many(partials)
    np.testing.assert_array_equal(resolve_topk(pairwise), resolve_topk(many))


def test_bounds_identical_nan_and_zero_semantics():
    assert bounds_identical(None, None)
    assert not bounds_identical(None, (0.0, 1.0))
    assert bounds_identical((0.0, float("nan")), (0.0, float("nan")))
    assert not bounds_identical((0.0, 1.0), (0.0, 2.0))
    assert bounds_identical((-0.0, 1.0), (0.0, 1.0))  # == semantics


def test_shard_summary_counts_and_nan_d_max():
    values = np.array([1.0, 2.0, 2.0, 3.0, np.nan, np.inf])
    nf, lo, hi, lt, le = _shard_summary(values, 2.0)
    assert (nf, lo, hi, lt, le) == (4.0, 1.0, 3.0, 1.0, 3.0)
    # A NaN d_max (all-NaN previous resolve) certifies nothing.
    assert _shard_summary(values, float("nan"))[3:] == (0.0, 0.0)
    assert _shard_summary(np.array([np.nan]), 2.0)[0] == 0.0


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
