"""The interactive VisDB session: apply modifications, get new feedback.

:class:`VisDBSession` is the headless counterpart of the "Visualization and
Query Modification" window: it owns the current query, applies modification
events (slider moves, weight changes, percentage changes, selections) and
hands out visualization windows and sliders.  It is the one interactive
session of the package: the feedback service's
:class:`~repro.service.session.ServiceSession` runs one per user.

The session runs on a :class:`~repro.core.engine.QueryEngine`: the query is
prepared once and every event translates into a dirty-path modification of
the prepared plan, so a recalculation recomputes only the subtrees the event
invalidated (a slider move re-evaluates one leaf, a weight change only
re-normalizes along the changed path, a percentage change redoes reduction
and normalization).  Recalculation happens immediately when
auto-recalculation is on, lazily otherwise ("auto recalculate off" for
large databases).

Every query modification is recorded as the values it replaced
(:meth:`~repro.core.engine.PreparedQuery.apply_change`), never as a copy of
the condition tree.  Undo, redo and the rollback of a failed
:meth:`VisDBSession.batch` are one operation: setting recorded values
back.

Threading contract: a session is not thread-safe.  One thread at a time
may use it; the service guarantees that by running at most one batch per
session.  Cross-session state lives in the engine's thread-safe caches.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.engine import PipelineConfig, PreparedQuery, QueryEngine
from repro.core.result import QueryFeedback
from repro.interact.events import (
    QUERY_EVENTS,
    ClearSelection,
    DrillDown,
    SelectColorRange,
    SelectTuple,
    SessionEvent,
    ToggleAutoRecalculate,
)
from repro.interact.history import QueryHistory, revert
from repro.interact.selection import items_in_color_range
from repro.query.builder import Query
from repro.query.expr import NodePath, QueryNode
from repro.storage.database import Database
from repro.storage.table import Table
from repro.vis.layout import MultiWindowLayout
from repro.vis.sliders import OverallSpectrum, Slider, sliders_for_feedback
from repro.vis.window import VisualizationWindow

__all__ = ["VisDBSession"]


class VisDBSession:
    """A scripted interactive session over one query.

    Parameters
    ----------
    source:
        Database or table queried against.
    query:
        Initial query (anything :class:`QueryEngine` accepts), or a
        :class:`~repro.core.engine.PreparedQuery` to adopt as it is --
        with its engine and config -- instead of preparing the query on a
        private engine.
    config:
        Pipeline configuration of the private engine (not with a prepared
        query, which brings its own).
    layout:
        Multi-window layout used for rendering (small windows by default).
    auto_recalculate:
        If True (the paper's "normal mode") every modification triggers a
        re-execution; otherwise :meth:`recalculate` must be called
        explicitly ("auto recalculate off" for large databases).
    """

    def __init__(self, source: Database | Table, query, config: PipelineConfig | None = None,
                 layout: MultiWindowLayout | None = None, auto_recalculate: bool = True):
        if isinstance(query, PreparedQuery):
            if config is not None:
                raise ValueError("a prepared query brings its own config; pass none")
            self._prepared = query
        else:
            self._prepared = QueryEngine(source, config).prepare(query)
        self.layout = layout or MultiWindowLayout()
        self.auto_recalculate = auto_recalculate
        self._dirty = True
        self._feedback: QueryFeedback | None = None
        self.selection: np.ndarray | None = None
        self.history = QueryHistory()
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

    def _modified(self) -> QueryFeedback | None:
        self._dirty = True
        if self.auto_recalculate:
            self.recalculate()
        return self._feedback if not self._dirty else None

    def _record(self, changes) -> None:
        # A percentage change is a config change, not a query modification:
        # it stays out of the undo history.
        step = [change for change in changes if change[1] != "config"]
        if step:
            self.history.push(step)

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #
    @contextmanager
    def batch(self, events: Iterable[SessionEvent]) -> Iterator[QueryFeedback]:
        """Apply query events as one step, recalculate, and yield the feedback.

        If applying an event, the recalculation or the ``with`` body raises,
        every change the batch made is reverted and the session's feedback
        is what it was before: a failed batch leaves no trace.  A batch that
        completes is one undo step.
        """
        before = self._feedback, self._dirty
        changes = []
        try:
            for event in events:
                changes.append(self._prepared.apply_change(event))
            yield self.recalculate()
        except BaseException:
            revert(changes)
            self._feedback, self._dirty = before
            raise
        self._record(changes)

    def apply(self, event: SessionEvent) -> QueryFeedback | None:
        """Apply one modification event; returns fresh feedback when recalculated.

        With auto-recalculation on, a query event whose recalculation raises
        is reverted (see :meth:`batch`).
        """
        if isinstance(event, QUERY_EVENTS):
            if self.auto_recalculate:
                with self.batch([event]):
                    pass
            else:
                self._record([self._prepared.apply_change(event)])
                self._dirty = True
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
        """Revert the newest query modification step."""
        self.history.undo()
        return self._modified()

    def redo(self) -> QueryFeedback | None:
        """Re-apply the most recently undone modification step."""
        self.history.redo()
        return self._modified()
