"""Unit and integration tests for the reference tree walk and the pipeline."""

import numpy as np
import pytest

from repro import (
    AndNode,
    OrNode,
    PipelineConfig,
    QueryBuilder,
    ReductionMethod,
    RelevanceScale,
    ScreenSpec,
    Table,
    VisualFeedbackQuery,
    condition,
)
from repro.core.plan import reference_feedback
from repro.core.relevance import relevance_factors
from repro.query.expr import NotNode
from repro.query.joins import Connection, JoinKind
from repro.storage.database import Database


# -- relevance factors ---------------------------------------------------- #
def test_relevance_factor_scales_are_monotone():
    distances = np.array([0.0, 100.0, 255.0])
    linear = relevance_factors(distances, RelevanceScale.LINEAR)
    reciprocal = relevance_factors(distances, RelevanceScale.RECIPROCAL)
    assert linear[0] == 1.0 and linear[2] == 0.0
    assert np.all(np.diff(linear) < 0) and np.all(np.diff(reciprocal) < 0)
    np.testing.assert_array_equal(np.argsort(linear), np.argsort(reciprocal))


# -- evaluator -------------------------------------------------------------- #
def evaluate(tree, table):
    """Per-node feedback of ``tree`` over ``table``, from the reference walk."""
    return reference_feedback(table, tree, PipelineConfig()).node_feedback


@pytest.fixture()
def table() -> Table:
    rng = np.random.default_rng(2)
    return Table(
        "T",
        {
            "a": rng.uniform(0.0, 100.0, 1000),
            "b": rng.uniform(0.0, 10.0, 1000),
        },
    )


def test_evaluator_produces_feedback_per_node(table):
    tree = AndNode([condition("a", ">", 50.0), condition("b", "<", 5.0)])
    feedback = evaluate(tree, table)
    assert set(feedback) == {(), (0,), (1,)}
    root = feedback[()]
    assert not root.is_leaf
    assert root.normalized_distances.shape == (1000,)
    assert 0.0 <= root.normalized_distances.min()
    assert root.normalized_distances.max() <= 255.0


def test_evaluator_exact_items_have_zero_distance(table):
    tree = AndNode([condition("a", ">", 50.0), condition("b", "<", 5.0)])
    feedback = evaluate(tree, table)
    root = feedback[()]
    assert np.all(root.normalized_distances[root.exact_mask] == 0.0)
    for path in ((0,), (1,)):
        node = feedback[path]
        assert np.all(node.normalized_distances[node.exact_mask] == 0.0)


def test_evaluator_or_node_zero_if_any_child_zero(table):
    tree = OrNode([condition("a", ">", 50.0), condition("b", "<", 5.0)])
    feedback = evaluate(tree, table)
    child_zero = (feedback[(0,)].normalized_distances == 0.0) | (
        feedback[(1,)].normalized_distances == 0.0
    )
    assert np.all(feedback[()].normalized_distances[child_zero] == 0.0)


def test_evaluator_not_node_simplified(table):
    tree = NotNode(condition("a", ">", 50.0))
    feedback = evaluate(tree, table)
    assert feedback[()].exact_mask.sum() == np.sum(table.column("a") <= 50.0)


def test_evaluator_unsimplifiable_not_raises(table):
    tree = NotNode(AndNode([condition("a", ">", 1.0), condition("b", ">", 1.0)]))
    with pytest.raises(ValueError):
        evaluate(tree, table)


# -- pipeline: single table -------------------------------------------------- #
def test_pipeline_basic_statistics(table):
    feedback = VisualFeedbackQuery(table, "a > 90").execute()
    stats = feedback.statistics
    assert stats.num_objects == 1000
    expected_results = int(np.sum(table.column("a") > 90.0))
    assert stats.num_results == expected_results
    assert 0 < stats.num_displayed <= 1000
    assert stats.percentage_displayed == pytest.approx(stats.num_displayed / 1000)


def test_pipeline_display_order_sorted_by_relevance(table):
    feedback = VisualFeedbackQuery(table, "a > 90 AND b < 2").execute()
    ordered = feedback.ordered_distances(())
    assert np.all(np.diff(ordered) >= 0)
    relevance = feedback.ordered_relevance()
    assert np.all(np.diff(relevance) <= 1e-12)


def test_pipeline_percentage_override(table):
    feedback = VisualFeedbackQuery(table, "a > 90", percentage=0.25).execute()
    assert feedback.statistics.num_displayed == 250


def test_pipeline_small_screen_limits_items(table):
    config = PipelineConfig(screen=ScreenSpec(32, 32))
    feedback = VisualFeedbackQuery(table, "a > 90 AND b < 5", config).execute()
    # 1024 pixels, 2 predicates + overall -> at most 341 items.
    assert feedback.statistics.num_displayed <= 341
    assert feedback.display_capacity == 341


def test_pipeline_pixels_per_item_reduces_capacity(table):
    small = PipelineConfig(screen=ScreenSpec(64, 64), pixels_per_item=16)
    large = PipelineConfig(screen=ScreenSpec(64, 64), pixels_per_item=1)
    capacity_small = VisualFeedbackQuery(table, "a > 90", small).item_capacity(1)
    capacity_large = VisualFeedbackQuery(table, "a > 90", large).item_capacity(1)
    assert capacity_small * 16 == capacity_large


def test_pipeline_condition_tree_input(table, ):
    tree = OrNode([condition("a", ">", 95.0), condition("b", "<", 0.5)])
    feedback = VisualFeedbackQuery(table, tree).execute()
    assert len(feedback.top_level_paths()) == 2
    summary = feedback.window_summary()
    assert len(summary) == 3  # overall + two predicates


def test_pipeline_multipeak_reduction(table):
    config = PipelineConfig(reduction=ReductionMethod.MULTIPEAK, screen=ScreenSpec(64, 64))
    feedback = VisualFeedbackQuery(table, "a > 99.5", config).execute()
    assert feedback.statistics.num_displayed >= 1


def test_pipeline_relevance_scale_option(table):
    reciprocal = VisualFeedbackQuery(table, "a > 90",
                                     relevance_scale=RelevanceScale.RECIPROCAL).execute()
    assert reciprocal.relevance.max() <= 1.0


def test_pipeline_rejects_query_without_condition(table):
    from repro.query.builder import Query

    with pytest.raises(ValueError, match="condition"):
        VisualFeedbackQuery(table, Query("q", ["T"])).execute()


def test_pipeline_rejects_unknown_query_type(table):
    with pytest.raises(TypeError):
        VisualFeedbackQuery(table, 123)


def test_pipeline_invalid_config():
    with pytest.raises(ValueError):
        PipelineConfig(pixels_per_item=3)
    with pytest.raises(ValueError):
        PipelineConfig(percentage=0.0)
    with pytest.raises(ValueError):
        ScreenSpec(0, 10)


@pytest.mark.parametrize("z", ["abc", 0, -3, 2.5, True, float("nan")])
def test_pipeline_config_refuses_a_bad_multipeak_z(z):
    """Only a positive int (or None) reaches the multi-peak cut: the
    others failed there with a TypeError, ValueError or IndexError, and
    ``True`` ran as z = 1."""
    with pytest.raises(ValueError, match="multipeak_z"):
        PipelineConfig(reduction=ReductionMethod.MULTIPEAK, multipeak_z=z)
    assert PipelineConfig(multipeak_z=np.int64(3)).multipeak_z == 3


def test_pipeline_config_with_copy():
    config = PipelineConfig()
    changed = config.with_(percentage=0.5)
    assert changed.percentage == 0.5
    assert config.percentage is None


def test_pipeline_with_condition_copy(table):
    pipeline = VisualFeedbackQuery(table, "a > 90")
    modified = pipeline.with_condition(condition("a", ">", 10.0))
    original_results = pipeline.execute().statistics.num_results
    modified_results = modified.execute().statistics.num_results
    assert modified_results > original_results


# -- pipeline: joins ----------------------------------------------------------- #
@pytest.fixture()
def join_db() -> Database:
    rng = np.random.default_rng(5)
    weather = Table(
        "Weather",
        {"DateTime": np.arange(0.0, 6000.0, 60.0), "Temperature": rng.normal(15, 5, 100)},
    )
    pollution = Table(
        "Air-Pollution",
        {"DateTime": np.arange(30.0, 6030.0, 60.0), "Ozone": rng.uniform(0, 100, 100)},
    )
    database = Database("env", [weather, pollution])
    database.register_connection(
        Connection("with-time-diff", "Air-Pollution", "Weather", "DateTime", "DateTime",
                   JoinKind.TIME_DIFF)
    )
    database.register_connection(
        Connection("at-same-time-as", "Air-Pollution", "Weather", "DateTime", "DateTime",
                   JoinKind.EQUI)
    )
    return database


def test_pipeline_join_creates_join_window(join_db):
    query = (
        QueryBuilder("q", join_db)
        .use_tables("Weather", "Air-Pollution")
        .where(condition("Weather.Temperature", ">", 15.0))
        .use_connection("Air-Pollution with-time-diff Weather", parameter=120)
        .build()
    )
    feedback = VisualFeedbackQuery(join_db, query, max_join_pairs=5000).execute()
    assert feedback.statistics.num_objects == 5000
    labels = [feedback.node_feedback[p].label for p in feedback.top_level_paths()]
    assert any("with-time-diff" in label for label in labels)


def test_pipeline_join_unqualified_attribute_is_resolved(join_db):
    query = (
        QueryBuilder("q", join_db)
        .use_tables("Weather", "Air-Pollution")
        .where(condition("Temperature", ">", 15.0))
        .use_connection("Air-Pollution with-time-diff Weather", parameter=120)
        .build()
    )
    feedback = VisualFeedbackQuery(join_db, query, max_join_pairs=2000).execute()
    assert feedback.statistics.num_objects == 2000


def test_pipeline_exact_join_vs_approximate_join(join_db):
    """Offset sampling grids: the exact time join finds nothing, the approximate
    time-diff join still produces near matches -- the paper's motivation for
    approximative joins."""
    exact_query = (
        QueryBuilder("exact", join_db)
        .use_tables("Weather", "Air-Pollution")
        .where(condition("Weather.Temperature", ">", -100.0))
        .use_connection("Air-Pollution at-same-time-as Weather")
        .build()
    )
    feedback = VisualFeedbackQuery(join_db, exact_query, max_join_pairs=None).execute()
    join_path = feedback.top_level_paths()[-1]
    assert feedback.node_feedback[join_path].result_count == 0
    # The approximate join still ranks the 30-minute-offset pairs closest.
    ordered = feedback.ordered_distances(join_path)
    assert ordered[0] <= ordered[-1]


def test_pipeline_multi_table_without_connection_rejected(join_db):
    query = (
        QueryBuilder("q", join_db)
        .use_tables("Weather", "Air-Pollution")
        .where(condition("Weather.Temperature", ">", 15.0))
        .build()
    )
    with pytest.raises(ValueError, match="connection"):
        VisualFeedbackQuery(join_db, query).execute()


def test_pipeline_join_requires_database(join_db):
    table = join_db.table("Weather")
    query = (
        QueryBuilder("q", join_db)
        .use_tables("Weather", "Air-Pollution")
        .where(condition("Weather.Temperature", ">", 15.0))
        .use_connection("Air-Pollution with-time-diff Weather", parameter=60)
        .build()
    )
    with pytest.raises(ValueError, match="Database"):
        VisualFeedbackQuery(table, query).execute()


def test_pipeline_ambiguous_unqualified_attribute_rejected(join_db):
    # Built without database validation so that the ambiguity is only caught by
    # the pipeline's attribute qualification over the cross product.
    from repro.query.builder import Query

    query = Query(
        "q",
        ["Weather", "Air-Pollution"],
        condition=condition("DateTime", ">", 0.0),
        connections=[join_db.connection("Air-Pollution with-time-diff Weather").bind(60)],
    )
    with pytest.raises(ValueError, match="ambiguous"):
        VisualFeedbackQuery(join_db, query).execute()


def test_builder_rejects_ambiguous_attribute_at_build_time(join_db):
    with pytest.raises(ValueError, match="ambiguous"):
        (
            QueryBuilder("q", join_db)
            .use_tables("Weather", "Air-Pollution")
            .where(condition("DateTime", ">", 0.0))
            .use_connection("Air-Pollution with-time-diff Weather", parameter=60)
            .build()
        )


# -- feedback object --------------------------------------------------------------- #
def test_feedback_rank_and_tuple_access(table):
    feedback = VisualFeedbackQuery(table, "a > 90", percentage=0.1).execute()
    first_item = feedback.item_at_rank(0)
    assert feedback.rank_of_item(first_item) == 0
    values = feedback.selected_tuple(0)
    assert set(values) == {"a", "b"}
    missing = feedback.rank_of_item(int(np.argmin(table.column("a"))))
    assert missing is None or missing >= 0
    with pytest.raises(IndexError):
        feedback.item_at_rank(10_000)


def test_feedback_displayed_mask_and_values(table):
    feedback = VisualFeedbackQuery(table, "a > 90", percentage=0.2).execute()
    mask = feedback.displayed_mask()
    assert mask.sum() == feedback.statistics.num_displayed
    values = feedback.ordered_values("a")
    assert len(values) == feedback.statistics.num_displayed


def test_feedback_window_summary_restrictiveness(table):
    tree = AndNode([condition("a", ">", 99.0), condition("b", "<", 9.0)])
    feedback = VisualFeedbackQuery(table, tree).execute()
    summary = feedback.window_summary()
    restrictive = summary["a > 99"]["restrictiveness"]
    lenient = summary["b < 9"]["restrictiveness"]
    assert restrictive > lenient
