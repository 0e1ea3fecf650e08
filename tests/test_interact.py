"""Tests for the interactive session layer: events, selections, history."""

import numpy as np
import pytest

from repro import AndNode, OrNode, QueryBuilder, condition
from repro.interact import (
    ClearSelection,
    DrillDown,
    QueryHistory,
    SelectColorRange,
    SelectTuple,
    SetPercentageDisplayed,
    SetQueryRange,
    SetThreshold,
    SetWeight,
    ToggleAutoRecalculate,
    VisDBSession,
    highlight_positions,
    items_in_color_range,
)
from repro.interact.selection import selected_tuple_values
from repro.query.builder import Query, between
from repro.query.predicates import AttributePredicate
from repro.vis.layout import MultiWindowLayout
from repro.vis.spiral import spiral_positions


@pytest.fixture()
def session(weather_db, or_query):
    layout = MultiWindowLayout(window_width=40, window_height=40)
    return VisDBSession(weather_db, or_query, layout=layout)


# -- basic session behaviour ------------------------------------------------ #
def test_session_initial_feedback(session):
    stats = session.statistics()
    assert stats["# objects"] == 2000
    assert session.recalculations == 1
    assert not session.is_dirty


def test_session_requires_condition(weather_db):
    with pytest.raises(ValueError, match="condition"):
        VisDBSession(weather_db, Query("q", ["Weather"]))


def test_set_threshold_changes_results(session):
    before = session.statistics()["# of results"]
    session.apply(SetThreshold((0,), 30.0))
    after = session.statistics()["# of results"]
    assert after < before
    assert session.recalculations == 2


def test_set_query_range_replaces_predicate(session):
    session.apply(SetQueryRange((2,), 40.0, 60.0))
    slider = next(s for s in session.sliders()[1] if s.attribute == "Humidity")
    assert slider.query_low == 40.0 and slider.query_high == 60.0


def test_set_query_range_on_range_predicate(weather_db):
    query = (
        QueryBuilder("q", weather_db).use_tables("Weather")
        .where(between("Humidity", 40.0, 60.0))
        .build()
    )
    session = VisDBSession(weather_db, query)
    session.apply(SetQueryRange((), 50.0, 55.0))
    assert "50" in session.condition.describe()


def test_set_weight_event(session):
    session.apply(SetWeight((1,), 0.2))
    assert session.condition.find((1,)).weight == 0.2


def test_set_percentage_displayed(session):
    session.apply(SetPercentageDisplayed(0.25))
    assert session.statistics()["# displayed"] == 500


def test_select_tuple_and_highlight(session):
    session.apply(SelectTuple(0))
    assert session.selection is not None and len(session.selection) == 1
    windows = session.windows()
    positions = highlight_positions(windows, session.selection)
    # The selected item appears at the same pixel position in every window.
    unique_positions = {tuple(p) for p in (tuple(v) for v in positions.values()) if p}
    assert len(unique_positions) == 1
    rendered = session.render()
    assert rendered.ndim == 3


def test_select_color_range_projection(session):
    session.apply(SelectColorRange((0,), 0.0, 50.0))
    selected = session.selection
    assert selected is not None and len(selected) > 0
    distances = session.feedback.node_feedback[(0,)].normalized_distances[selected]
    assert np.all(distances <= 50.0)
    session.apply(ClearSelection())
    assert session.selection is None


def test_toggle_auto_recalculate_defers_execution(session):
    session.apply(ToggleAutoRecalculate(False))
    recalculations = session.recalculations
    session.apply(SetThreshold((0,), 20.0))
    assert session.is_dirty
    assert session.recalculations == recalculations
    session.recalculate()
    assert not session.is_dirty


def test_lazy_session_feedback_requires_recalculate(weather_db, or_query):
    session = VisDBSession(weather_db, or_query, auto_recalculate=False)
    assert session.is_dirty
    # Lazy mode must not silently recalculate on property access.
    with pytest.raises(RuntimeError, match="recalculate"):
        session.feedback
    assert session.recalculations == 0
    session.recalculate()
    assert session.statistics()["# objects"] == 2000


def test_lazy_session_returns_stale_feedback_when_dirty(weather_db, or_query):
    session = VisDBSession(weather_db, or_query, auto_recalculate=False)
    session.recalculate()
    before = session.statistics()["# of results"]
    session.apply(SetThreshold((0,), 30.0))
    assert session.is_dirty
    # Still the stale feedback: no hidden recalculation happened.
    assert session.statistics()["# of results"] == before
    assert session.recalculations == 1
    session.recalculate()
    assert session.statistics()["# of results"] < before


def test_stale_feedback_sliders_keep_their_range(weather_db, or_query):
    """A feedback describes the tree it was computed from, not the live
    one the next event edits."""
    session = VisDBSession(weather_db, or_query, auto_recalculate=False)
    session.recalculate()

    def humidity():
        return next(s for s in session.sliders()[1] if s.attribute == "Humidity")

    before = (humidity().query_low, humidity().query_high)
    session.apply(SetQueryRange((2,), 40.0, 60.0))
    assert session.is_dirty
    assert (humidity().query_low, humidity().query_high) == before != (40.0, 60.0)
    session.recalculate()
    assert (humidity().query_low, humidity().query_high) == (40.0, 60.0)


def test_set_percentage_keeps_prepared_query(session):
    prepared = session.prepared
    session.apply(SetPercentageDisplayed(0.25))
    # Folded into the engine's config path: no new pipeline object is built.
    assert session.prepared is prepared
    assert session.statistics()["# displayed"] == 500


def test_session_event_sequence_matches_fresh_session(weather_db, or_query):
    import copy

    session = VisDBSession(weather_db, or_query)
    session.apply(SetQueryRange((2,), 40.0, 60.0))
    session.apply(SetWeight((0,), 0.5))
    session.apply(SetPercentageDisplayed(0.3))
    incremental = session.feedback
    fresh = VisDBSession(
        weather_db,
        copy.deepcopy(session.query),
        config=session.prepared.config,
    ).feedback
    np.testing.assert_array_equal(incremental.display_order, fresh.display_order)
    assert incremental.statistics == fresh.statistics
    for path in incremental.node_feedback:
        np.testing.assert_array_equal(
            incremental.node_feedback[path].normalized_distances,
            fresh.node_feedback[path].normalized_distances,
        )


def test_drill_down_returns_subwindows(weather_db):
    tree = AndNode([
        condition("Temperature", ">", 10.0),
        OrNode([condition("Humidity", "<", 60.0), condition("Solar-Radiation", ">", 600.0)]),
    ])
    query = QueryBuilder("q", weather_db).use_tables("Weather").where(tree).build()
    session = VisDBSession(weather_db, query,
                           layout=MultiWindowLayout(window_width=40, window_height=40))
    windows = session.drill_down((1,))
    # Parent OR window plus its two children.
    assert set(windows) == {(1,), (1, 0), (1, 1)}
    assert session.apply(DrillDown((1,))) is None


def test_unsupported_event_and_leaf_errors(session):
    with pytest.raises(TypeError):
        session.apply("not an event")
    with pytest.raises(TypeError):
        session.apply(SetQueryRange((), 0.0, 1.0))  # root is an OR node, not a leaf
    with pytest.raises(TypeError):
        session.apply(SetThreshold((), 1.0))


def test_undo_redo_roundtrip(session):
    initial_results = session.statistics()["# of results"]
    session.apply(SetThreshold((0,), 30.0))
    modified_results = session.statistics()["# of results"]
    session.undo()
    assert session.statistics()["# of results"] == initial_results
    session.redo()
    assert session.statistics()["# of results"] == modified_results


def test_batch_applies_events_as_one_undo_step(session):
    session.apply(SetPercentageDisplayed(0.25))
    with session.batch([SetThreshold((0,), 30.0), SetWeight((1,), 0.4),
                        SetPercentageDisplayed(0.3)]) as feedback:
        assert feedback is session.feedback
    assert session.statistics()["# displayed"] == 600
    session.undo()
    # The tree changes go back together; the percentage stays out of history.
    assert "30" not in session.condition.find((0,)).describe()
    assert session.condition.find((1,)).weight == 1.0
    assert session.statistics()["# displayed"] == 600
    assert not session.history.can_undo


def test_failed_batch_reverts_every_change(session):
    before = session.feedback
    predicate = session.condition.find((0,)).predicate
    with pytest.raises(TypeError):
        # The root is an OR node, not a leaf with a threshold.
        with session.batch([SetWeight((1,), 0.5), SetPercentageDisplayed(0.5),
                            SetThreshold((), 5.0)]):
            pass
    with pytest.raises(RuntimeError, match="frame build"):
        with session.batch([SetThreshold((0,), 30.0)]):
            raise RuntimeError("frame build failed")
    assert session.condition.find((1,)).weight == 1.0
    assert session.condition.find((0,)).predicate is predicate
    assert session.prepared.config.percentage is None
    assert session.feedback is before and not session.is_dirty
    assert not session.history.can_undo


def test_auto_apply_reverts_when_recalculation_raises(session, monkeypatch):
    predicate = session.condition.find((0,)).predicate

    def fail():
        raise RuntimeError("execution failed")

    monkeypatch.setattr(session.prepared, "execute", fail)
    with pytest.raises(RuntimeError, match="execution failed"):
        session.apply(SetThreshold((0,), 30.0))
    assert session.condition.find((0,)).predicate is predicate
    assert not session.history.can_undo


def test_independent_windows_sort_each_part_by_its_own_distances(session):
    aligned = session.windows()
    independent = session.windows(independent=True)
    feedback = session.feedback
    overall = aligned[()]
    np.testing.assert_array_equal(independent[()].item_ids, overall.item_ids)
    np.testing.assert_array_equal(independent[()].distances, overall.distances)
    count = int(np.sum(overall.item_ids >= 0))
    positions = spiral_positions(count, overall.width, overall.height)
    reordered = 0
    for path in feedback.top_level_paths():
        ids = feedback.display_order[:count]
        own = feedback.ordered_distances(path)[:count]
        order = np.argsort(own, kind="stable")
        placed = independent[path].item_ids[positions[:, 1], positions[:, 0]]
        np.testing.assert_array_equal(placed, ids[order])
        np.testing.assert_array_equal(
            independent[path].distances[positions[:, 1], positions[:, 0]],
            own[order])
        reordered += not np.array_equal(placed, ids)
    # The arrangement differs from the overall one for some part, so the
    # check above is not vacuous.
    assert reordered


def test_session_windows_share_positions(session):
    windows = session.windows()
    overall = windows[()]
    for path, window in windows.items():
        np.testing.assert_array_equal(window.item_ids, overall.item_ids)


# -- selection helpers -------------------------------------------------------- #
def test_items_in_color_range_bounds_swapped(session):
    feedback = session.feedback
    a = items_in_color_range(feedback, (0,), 50.0, 0.0)
    b = items_in_color_range(feedback, (0,), 0.0, 50.0)
    np.testing.assert_array_equal(a, b)


def test_selected_tuple_values(session):
    values = selected_tuple_values(session.feedback, 0, attributes=["Temperature"])
    assert set(values) == {"Temperature"}


# -- history ------------------------------------------------------------------- #
def _move(leaf, value):
    """Move a leaf's threshold; return the change as ``apply_change`` does."""
    old = leaf.predicate
    leaf.predicate = AttributePredicate(old.attribute, old.operator, value)
    return (leaf, "predicate", old, leaf.predicate)


def test_history_undo_redo_stack():
    leaf = condition("a", ">", 1.0)
    history = QueryHistory()
    history.push([_move(leaf, 2.0)])
    history.push([_move(leaf, 3.0)])
    assert history.can_undo and not history.can_redo
    history.undo()
    assert "2" in leaf.describe()
    assert history.can_redo
    history.redo()
    assert "3" in leaf.describe()
    history.undo()
    history.undo()
    assert "1" in leaf.describe()
    assert not history.can_undo
    with pytest.raises(IndexError):
        history.undo()


def test_history_push_clears_redo():
    leaf = condition("a", ">", 1.0)
    history = QueryHistory()
    history.push([_move(leaf, 2.0)])
    history.undo()
    history.push([_move(leaf, 5.0)])
    assert not history.can_redo
    with pytest.raises(IndexError):
        history.redo()


def test_history_bounded_depth():
    leaf = condition("a", ">", 0.0)
    history = QueryHistory(max_depth=3)
    for i in range(10):
        history.push([_move(leaf, float(i))])
    assert len(history) == 3
    for _ in range(3):
        history.undo()
    assert leaf.predicate.value == 6.0
    with pytest.raises(IndexError):
        history.undo()
    with pytest.raises(ValueError):
        QueryHistory(max_depth=0)


def test_history_undo_restores_the_replaced_predicate_object(session):
    leaf = session.condition.find((0,))
    original = leaf.predicate
    session.apply(SetThreshold((0,), 30.0))
    moved = leaf.predicate
    assert moved is not original
    session.undo()
    assert leaf.predicate is original
    session.redo()
    assert leaf.predicate is moved
