"""Interactive query modification (scripted, headless).

The VisDB loop is: run the query, look at the visual feedback, drag a
slider / change a weighting factor / select a colour range, and get new
feedback immediately.  This package provides that loop without a GUI:

* :mod:`~repro.interact.events` -- the modification events a user can issue
  (query range changes, weight changes, percentage changes, tuple and
  colour-range selections, drill-downs into subparts, ...).
* :class:`~repro.interact.session.VisDBSession` -- holds the current query,
  applies events, re-executes the pipeline (immediately in "auto
  recalculate" mode or on demand otherwise) and exposes windows/sliders.
  It is the one interactive session: the feedback service runs one per
  user, with recalculation on demand, and applies each coalesced batch
  through :meth:`~repro.interact.session.VisDBSession.batch`.
* :mod:`~repro.interact.selection` -- colour-range projection and
  cross-window highlighting.
* :mod:`~repro.interact.history` -- undo/redo over recorded changes: each
  modification keeps the values it replaced, and undo, redo and the
  rollback of a failed batch set recorded values back.

A session is not thread-safe: one thread at a time may use it.
"""

from repro.interact.events import (
    SetQueryRange,
    SetThreshold,
    SetWeight,
    SetPercentageDisplayed,
    SelectTuple,
    SelectColorRange,
    ClearSelection,
    ToggleAutoRecalculate,
    DrillDown,
    SessionEvent,
)
from repro.interact.session import VisDBSession
from repro.interact.selection import items_in_color_range, highlight_positions
from repro.interact.history import QueryHistory

__all__ = [
    "SessionEvent",
    "SetQueryRange",
    "SetThreshold",
    "SetWeight",
    "SetPercentageDisplayed",
    "SelectTuple",
    "SelectColorRange",
    "ClearSelection",
    "ToggleAutoRecalculate",
    "DrillDown",
    "VisDBSession",
    "items_in_color_range",
    "highlight_positions",
    "QueryHistory",
]
