"""Tests for the prepared-query engine: equivalence, invalidation, caches."""

import numpy as np
import pytest

from repro import (
    AndNode,
    Database,
    OrNode,
    PipelineConfig,
    QueryBuilder,
    QueryEngine,
    ScreenSpec,
    Table,
    VisualFeedbackQuery,
    condition,
)
from repro.interact.events import (
    SetPercentageDisplayed,
    SetQueryRange,
    SetThreshold,
    SetWeight,
)
from repro.obs import Trace, use_trace
from repro.query.builder import Query, between
from repro.query.predicates import AttributePredicate, ComparisonOperator, RangePredicate

from reference import reference_frame


def assert_feedback_equal(a, b):
    """Feedback from an incremental re-execution must match a cold run exactly."""
    np.testing.assert_array_equal(a.display_order, b.display_order)
    assert a.statistics == b.statistics
    assert set(a.node_feedback) == set(b.node_feedback)
    for path in a.node_feedback:
        np.testing.assert_array_equal(
            a.node_feedback[path].normalized_distances,
            b.node_feedback[path].normalized_distances,
        )
        np.testing.assert_array_equal(
            a.node_feedback[path].exact_mask, b.node_feedback[path].exact_mask
        )
    np.testing.assert_array_equal(a.relevance, b.relevance)


# -- fingerprints ------------------------------------------------------------- #
def test_predicate_fingerprint_value_based():
    a = RangePredicate("Temperature", 10.0, 20.0)
    b = RangePredicate("Temperature", 10.0, 20.0)
    c = RangePredicate("Temperature", 10.0, 21.0)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    other_type = AttributePredicate("Temperature", ComparisonOperator.GT, 10.0)
    assert a.fingerprint() != other_type.fingerprint()


def test_node_fingerprint_includes_weight_source_does_not():
    leaf_a = condition("a", ">", 5.0)
    leaf_b = condition("a", ">", 5.0, weight=0.5)
    assert leaf_a.source_fingerprint() == leaf_b.source_fingerprint()
    assert leaf_a.fingerprint() != leaf_b.fingerprint()


def test_tree_fingerprint_changes_with_structure():
    tree1 = AndNode([condition("a", ">", 1.0), condition("b", "<", 2.0)])
    tree2 = OrNode([condition("a", ">", 1.0), condition("b", "<", 2.0)])
    tree3 = AndNode([condition("b", "<", 2.0), condition("a", ">", 1.0)])
    fingerprints = {tree1.fingerprint(), tree2.fingerprint(), tree3.fingerprint()}
    assert len(fingerprints) == 3


# -- prepare/execute equivalence ---------------------------------------------- #
def test_prepared_matches_cold_single_table(weather_db, or_query):
    cold = VisualFeedbackQuery(weather_db, or_query).execute()
    prepared = QueryEngine(weather_db).prepare(or_query)
    assert_feedback_equal(prepared.execute(), cold)
    # A second execution with no changes is served from the caches.
    assert_feedback_equal(prepared.execute(), cold)


def test_prepared_matches_cold_after_changes(weather_db, or_query):
    prepared = QueryEngine(weather_db, percentage=0.3).prepare(or_query)
    prepared.execute()
    incremental = prepared.execute(changes=[
        SetQueryRange((2,), 40.0, 60.0),
        SetWeight((0,), 0.5),
        SetThreshold((1,), 500.0),
    ])
    cold = VisualFeedbackQuery(weather_db, prepared.query, percentage=0.3).execute()
    assert_feedback_equal(incremental, cold)


def test_prepared_percentage_change_matches_cold(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    prepared.execute()
    incremental = prepared.execute(changes=[SetPercentageDisplayed(0.2)])
    assert incremental.statistics.num_displayed == 400
    cold = VisualFeedbackQuery(weather_db, prepared.query, percentage=0.2).execute()
    assert_feedback_equal(incremental, cold)


def test_prepared_join_query_matches_cold(small_env_db):
    def build():
        return (
            QueryBuilder("join", small_env_db)
            .use_tables("Weather")
            .where(condition("Weather.Temperature", ">", 15.0))
            .use_connection("Air-Pollution with-time-diff Weather", parameter=120)
            .build()
        )

    config = PipelineConfig(percentage=0.25, max_join_pairs=20_000)
    prepared = QueryEngine(small_env_db, config).prepare(build())
    prepared.execute()
    incremental = prepared.execute(changes=[SetQueryRange((), 10.0, 20.0)])
    cold = VisualFeedbackQuery(small_env_db, prepared.query, config).execute()
    assert_feedback_equal(incremental, cold)


# -- cache invalidation ------------------------------------------------------- #
def test_weight_change_reuses_all_leaf_distances(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    prepared.execute()
    misses_before = prepared.cache_stats["leaf_misses"]
    prepared.execute(changes=[SetWeight((1,), 0.4)])
    stats = prepared.cache_stats
    # No raw leaf column was recomputed: only normalization/combination ran.
    assert stats["leaf_misses"] == misses_before
    assert stats["leaf_hits"] >= 1


def test_range_change_recomputes_exactly_one_leaf(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    prepared.execute()
    stats_before = prepared.cache_stats
    prepared.execute(changes=[SetQueryRange((2,), 40.0, 60.0)])
    stats = prepared.cache_stats
    assert stats["leaf_misses"] == stats_before["leaf_misses"] + 1
    # The two untouched leaves were served from the node cache.
    assert stats["node_hits"] >= stats_before["node_hits"] + 2


def test_percentage_change_recomputes_no_leaf(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    prepared.execute()
    raw_misses = prepared.cache_stats["leaf_misses"]
    prepared.execute(changes=[SetPercentageDisplayed(0.5)])
    stats = prepared.cache_stats
    # Raw distances are capacity-independent: all reused.
    assert stats["leaf_misses"] == raw_misses
    assert stats["leaf_hits"] >= 3


def test_unchanged_reexecution_hits_every_node(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    prepared.execute()
    before = prepared.cache_stats
    prepared.execute()
    after = prepared.cache_stats
    assert after["leaf_misses"] == before["leaf_misses"]
    assert after["node_misses"] == before["node_misses"]
    # Overall + three leaves resolved from the cache.
    assert after["node_hits"] == before["node_hits"] + 4


def test_mutating_shared_condition_is_detected(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    results_before = prepared.execute().statistics.num_results
    # Mutate the condition tree directly (as session events do).
    prepared.query.condition.children[0].predicate = AttributePredicate(
        "Temperature", ComparisonOperator.GT, 30.0
    )
    results_after = prepared.execute().statistics.num_results
    assert results_after < results_before
    cold = VisualFeedbackQuery(weather_db, prepared.query).execute()
    assert results_after == cold.statistics.num_results


@pytest.mark.parametrize("percentage", [0.2, None])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_table_swap_forgets_per_root_state(shards, percentage):
    """Re-pointing the query at another table must not serve the old one's
    state: value fingerprints name the computation, not the table, so the
    same query over same-shaped tables has the same keys."""
    def table(name, seed):
        rng = np.random.default_rng(seed)
        return Table(name, {"a": rng.uniform(0.0, 100.0, 400),
                            "b": rng.uniform(0.0, 100.0, 400)})

    db = Database("swap", [table("T1", 1), table("T2", 2)])
    config = PipelineConfig(screen=ScreenSpec(width=32, height=32),
                            percentage=percentage, shard_count=shards,
                            max_workers=2)
    prepared = QueryEngine(db, config).prepare(Query(
        name="swap", tables=["T1"],
        condition=AndNode([condition("a", ">", 97.0), between("b", 20.0, 23.0)])))
    assert_feedback_equal(reference_frame(db, prepared), prepared.execute())
    prepared.query.tables = ["T2"]
    swapped = prepared.execute()
    assert swapped.table is db.table("T2")
    assert_feedback_equal(reference_frame(db, prepared), swapped)
    # Patching resumes on the new table.
    moved = prepared.execute(changes=[SetQueryRange((1,), 20.0, 30.0)])
    assert_feedback_equal(reference_frame(db, prepared), moved)


def test_apply_change_validation_errors(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    with pytest.raises(TypeError):
        prepared.apply_change(SetQueryRange((), 0.0, 1.0))  # root is an OR node
    with pytest.raises(TypeError):
        prepared.apply_change(SetThreshold((), 1.0))
    with pytest.raises(TypeError):
        prepared.apply_change("not an event")


def test_engine_requires_condition_at_execute(weather_db):
    from repro.query.builder import Query

    prepared = QueryEngine(weather_db).prepare(Query("q", ["Weather"]))
    with pytest.raises(ValueError, match="condition"):
        prepared.execute()


# -- slider drags ------------------------------------------------------------- #
def test_slider_drag_sequence_patches_from_site_entry(weather_db):
    query = (
        QueryBuilder("drag", weather_db)
        .use_tables("Weather")
        .where(AndNode([
            between("Humidity", 30.0, 80.0),
            condition("Temperature", ">", 10.0),
        ]))
        .build()
    )
    engine = QueryEngine(weather_db, shard_count=1)
    prepared = engine.prepare(query)
    prepared.execute()
    sharded = engine.sharded_table(prepared.table, 1)
    assert not sharded.has_index("Humidity")

    def drag(low: float, high: float) -> str | None:
        """Move the slider; return why the leaf did not patch, if it did not."""
        trace = Trace("drag", trace_id=0)
        with use_trace(trace):
            feedback = prepared.execute(changes=[SetQueryRange((0,), low, high)])
        np.testing.assert_array_equal(
            feedback.node_feedback[(0,)].exact_mask,
            RangePredicate("Humidity", low, high).exact_mask(prepared.table))
        (leaf,) = [span for span in trace.spans if span.name == "node.evaluate"
                   and span.attrs["node"] == "(0,)"]
        return leaf.attrs.get("patch_declined")

    drag(35.0, 75.0)
    # The dragged attribute was indexed on the first interactive change.
    assert sharded.has_index("Humidity")
    # From here on the leaf's site entry is the base: each move patches the
    # columns over the changed rows only.
    before = prepared.cache_stats
    for low in (40.0, 45.0, 50.0):
        assert drag(low, 75.0) is None
    assert prepared.cache_stats["chunks_patched"] > before["chunks_patched"]
    # Moving the upper bound changes more than a third of the rows (most
    # of the data lies above it), so the leaf is recomputed in full.
    assert drag(6.0, 99.0) == "band-too-wide"


def test_prefetch_mask_matches_direct_evaluation(weather_db):
    query = (
        QueryBuilder("drag", weather_db)
        .use_tables("Weather")
        .where(between("Humidity", 30.0, 80.0))
        .build()
    )
    prepared = QueryEngine(weather_db).prepare(query)
    prepared.execute()
    feedback = prepared.execute(changes=[SetQueryRange((), 42.5, 77.5)])
    table = prepared.table
    expected = RangePredicate("Humidity", 42.5, 77.5).exact_mask(table)
    np.testing.assert_array_equal(feedback.node_feedback[()].exact_mask, expected)


# -- engine-level sharing ------------------------------------------------------ #
def test_cross_product_assembled_once(small_env_db):
    engine = QueryEngine(small_env_db, max_join_pairs=5_000)

    def build():
        return (
            QueryBuilder("join", small_env_db)
            .use_tables("Weather")
            .where(condition("Weather.Temperature", ">", 15.0))
            .use_connection("Air-Pollution at-same-time-as Weather")
            .build()
        )

    first = engine.prepare(build())
    second = engine.prepare(build())
    assert first.table is second.table


def test_join_tables_evict_least_recently_used(small_env_db, monkeypatch):
    """A join-table hit refreshes it; an eviction drops the evicted table's
    evaluation cache and partitionings with it."""
    monkeypatch.setattr(QueryEngine, "max_cached_tables", 2)
    engine = QueryEngine(small_env_db, max_join_pairs=2_000)
    query = (
        QueryBuilder("join", small_env_db)
        .use_tables("Weather")
        .where(condition("Weather.Temperature", ">", 15.0))
        .use_connection("Air-Pollution at-same-time-as Weather")
        .build()
    )

    def table(seed):
        prepared = engine.prepare(query, join_seed=seed)
        prepared.execute()
        return prepared.table

    first, second = table(0), table(1)
    assert table(0) is first  # a hit: the first table is now the newest
    table(2)                  # evicts the second, not the first
    assert table(0) is first
    assert id(second) not in engine._caches
    assert all(key[0] != id(second) for key in engine._sharded)
    assert table(1) is not second


def test_prepare_overrides_affect_table_assembly(small_env_db):
    engine = QueryEngine(small_env_db)  # default max_join_pairs: 250k
    query = (
        QueryBuilder("join", small_env_db)
        .use_tables("Weather")
        .where(condition("Weather.Temperature", ">", 15.0))
        .use_connection("Air-Pollution at-same-time-as Weather")
        .build()
    )
    prepared = engine.prepare(query, max_join_pairs=4_000)
    assert len(prepared.table) == 4_000
    assert prepared.config.max_join_pairs == 4_000


def test_cached_feedback_arrays_are_read_only(weather_db, or_query):
    prepared = QueryEngine(weather_db).prepare(or_query)
    feedback = prepared.execute()
    # The cache shares these arrays across executions; in-place mutation
    # must raise instead of silently corrupting later results.
    with pytest.raises(ValueError, match="read-only"):
        feedback.node_feedback[()].normalized_distances[0] = -1.0


def test_facade_repeated_execute_consistent(weather_db, or_query):
    pipeline = VisualFeedbackQuery(weather_db, or_query, percentage=0.4)
    first = pipeline.execute()
    second = pipeline.execute()
    assert_feedback_equal(first, second)
