"""The interactive VisDB session: apply modifications, get new feedback.

:class:`VisDBSession` is the headless counterpart of the "Visualization and
Query Modification" window: it owns the current query, applies modification
events (slider moves, weight changes, percentage changes, selections) and
hands out visualization windows and sliders.

The session runs on a :class:`~repro.core.engine.QueryEngine`: the query is
prepared once and every event translates into a dirty-path modification of
the prepared plan, so a recalculation recomputes only the subtrees the event
invalidated (a slider move re-evaluates one leaf, a weight change only
re-normalizes along the changed path, a percentage change redoes reduction
and normalization).  Recalculation happens immediately when
auto-recalculation is on, lazily otherwise ("auto recalculate off" for
large databases).
"""

from __future__ import annotations

import copy
from typing import Mapping

import numpy as np

from repro.core.engine import PipelineConfig, PreparedQuery, QueryEngine
from repro.core.result import QueryFeedback
from repro.interact.events import (
    ClearSelection,
    DrillDown,
    SelectColorRange,
    SelectTuple,
    SessionEvent,
    SetPercentageDisplayed,
    SetQueryRange,
    SetThreshold,
    SetWeight,
    ToggleAutoRecalculate,
)
from repro.interact.history import QueryHistory
from repro.interact.selection import items_in_color_range
from repro.query.builder import Query
from repro.query.expr import NodePath, QueryNode
from repro.storage.database import Database
from repro.storage.table import Table
from repro.vis.layout import MultiWindowLayout
from repro.vis.sliders import OverallSpectrum, Slider, sliders_for_feedback
from repro.vis.window import VisualizationWindow

__all__ = ["VisDBSession"]

#: Events that modify the prepared query (condition tree or display config).
_QUERY_EVENTS = (SetQueryRange, SetThreshold, SetWeight, SetPercentageDisplayed)


class VisDBSession:
    """A scripted interactive session over one query.

    Parameters
    ----------
    source:
        Database or table queried against.
    query:
        Initial query (anything :class:`QueryEngine` accepts).
    config:
        Pipeline configuration.
    layout:
        Multi-window layout used for rendering (small windows by default).
    auto_recalculate:
        If True (the paper's "normal mode") every modification triggers a
        re-execution; otherwise :meth:`recalculate` must be called
        explicitly ("auto recalculate off" for large databases).
    engine:
        Optional pre-existing :class:`QueryEngine` to attach to instead of
        creating a private one.  Embedding servers pass their shared engine
        here so that sessions over the same data reuse one set of
        cross-product tables, distance caches and range indexes.
    """

    def __init__(self, source: Database | Table, query, config: PipelineConfig | None = None,
                 layout: MultiWindowLayout | None = None, auto_recalculate: bool = True,
                 engine: QueryEngine | None = None):
        if engine is not None and config is not None:
            raise ValueError(
                "pass either a shared engine (whose config the session adopts) "
                "or a config for a private engine, not both"
            )
        self.engine = engine if engine is not None else QueryEngine(source, config)
        self._prepared: PreparedQuery = self.engine.prepare(query)
        self.source = source
        self.layout = layout or MultiWindowLayout()
        self.auto_recalculate = auto_recalculate
        self._dirty = True
        self._feedback: QueryFeedback | None = None
        self.selection: np.ndarray | None = None
        if self.query.condition is None:
            raise ValueError("the query needs a condition to start a VisDB session")
        self.history = QueryHistory(self.query.condition)
        self.recalculations = 0
        if auto_recalculate:
            self.recalculate()

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def prepared(self) -> PreparedQuery:
        """The underlying prepared query (engine-side state of this session)."""
        return self._prepared

    @property
    def query(self) -> Query:
        """The current query (its condition tree is mutated by events)."""
        return self._prepared.query

    @property
    def condition(self) -> QueryNode:
        """The user-level condition tree."""
        return self.query.condition

    @property
    def feedback(self) -> QueryFeedback:
        """The latest feedback.

        With auto-recalculation on, a dirty state triggers a recalculation.
        With auto-recalculation off the property is lazy: it returns the
        last computed (possibly stale) feedback, and raises ``RuntimeError``
        if no feedback has been computed yet -- call :meth:`recalculate`.
        """
        if self._feedback is None:
            if self.auto_recalculate:
                return self.recalculate()
            raise RuntimeError("no feedback available; call recalculate() first")
        if self._dirty and self.auto_recalculate:
            return self.recalculate()
        return self._feedback

    @property
    def is_dirty(self) -> bool:
        """True if the query changed since the last recalculation."""
        return self._dirty

    def _feedback_path(self, path: NodePath) -> NodePath:
        """Translate a user-condition path to the effective feedback path.

        When the query uses connections, the pipeline wraps the condition as
        child 0 of an AND node together with the join predicates.
        """
        if self.query.connections and self.query.condition is not None:
            return (0,) + tuple(path)
        return tuple(path)

    # ------------------------------------------------------------------ #
    # Recalculation
    # ------------------------------------------------------------------ #
    def recalculate(self) -> QueryFeedback:
        """Re-execute the prepared query (incrementally) for the current state."""
        self._feedback = self._prepared.execute()
        self._dirty = False
        self.recalculations += 1
        return self._feedback

    def _modified(self) -> None:
        self.history.push(self.condition)
        self._dirty = True
        if self.auto_recalculate:
            self.recalculate()

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #
    def apply(self, event: SessionEvent) -> QueryFeedback | None:
        """Apply one modification event; returns fresh feedback when recalculated."""
        if isinstance(event, _QUERY_EVENTS):
            self._prepared.apply_change(event)
            if isinstance(event, SetPercentageDisplayed):
                # A config change, not a query modification: no history entry.
                self._dirty = True
                if self.auto_recalculate:
                    self.recalculate()
            else:
                self._modified()
        elif isinstance(event, SelectTuple):
            self.selection = np.array([self.feedback.item_at_rank(event.rank)])
        elif isinstance(event, SelectColorRange):
            self.selection = items_in_color_range(
                self.feedback, self._feedback_path(event.path),
                event.distance_low, event.distance_high,
            )
        elif isinstance(event, ClearSelection):
            self.selection = None
        elif isinstance(event, ToggleAutoRecalculate):
            self.auto_recalculate = event.enabled
        elif isinstance(event, DrillDown):
            # Drill-down is a view operation; it does not change the query.
            return None
        else:
            raise TypeError(f"unsupported event type: {type(event).__name__}")
        return self._feedback if not self._dirty else None

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def windows(self, independent: bool = False) -> dict[NodePath, VisualizationWindow]:
        """The overall window plus one window per top-level query part."""
        return self.layout.windows(self.feedback, independent=independent)

    def drill_down(self, path: NodePath) -> dict[NodePath, VisualizationWindow]:
        """Windows for an inner operator box (the Fig. 5 view of the OR part)."""
        return self.layout.subpart_windows(self.feedback, self._feedback_path(path))

    def render(self) -> np.ndarray:
        """Compose the current windows (highlighting any selection) into an RGB image."""
        return self.layout.compose(self.windows(), highlight_items=self.selection)

    def sliders(self) -> tuple[OverallSpectrum, list[Slider]]:
        """The overall spectrum and one slider per predicate."""
        return sliders_for_feedback(self.feedback)

    def statistics(self) -> Mapping[str, object]:
        """The counters of the query modification part as a dictionary."""
        return self.feedback.statistics.as_dict()

    # ------------------------------------------------------------------ #
    # History
    # ------------------------------------------------------------------ #
    def undo(self) -> QueryFeedback | None:
        """Restore the previous query state."""
        restored = self.history.undo()
        self._replace_condition(restored)
        return self._feedback if not self._dirty else None

    def redo(self) -> QueryFeedback | None:
        """Re-apply the most recently undone query state."""
        restored = self.history.redo()
        self._replace_condition(restored)
        return self._feedback if not self._dirty else None

    def _replace_condition(self, condition: QueryNode) -> None:
        self.query.condition = copy.deepcopy(condition)
        self._dirty = True
        if self.auto_recalculate:
            self.recalculate()
