"""Modification events of the interactive session.

Each event corresponds to one of the interactions described in section 4.3:
moving a slider (changing the query range of a predicate), changing a
weighting factor, changing the percentage of data displayed, selecting a
tuple or a colour range, switching auto-recalculation on or off, and
double-clicking an operator box to drill down into a query subpart.

Every event also names the interactive *control* it came from via
:meth:`SessionEvent.coalesce_key`: two events with the same key are
successive states of one control (the two ends of one range slider, one
weighting factor, the percentage dial), so in a feedback loop only the
latest of them matters.  The multi-session service uses these keys to
collapse slider-drag bursts to their newest value before execution --
see :mod:`repro.service.coalesce`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.expr import NodePath

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
    "QUERY_EVENTS",
]


class SessionEvent:
    """Marker base class for all session events."""

    def coalesce_key(self) -> tuple:
        """Identity of the control this event is a state of.

        Events with equal keys supersede each other (latest wins) when the
        consumer only needs the newest state -- the paper's feedback
        semantics, where intermediate slider positions of one drag are
        never displayed.  The default is one slot per event type; events
        bound to a query-tree node refine it with their path.
        """
        return (type(self).__name__,)


@dataclass(frozen=True)
class SetQueryRange(SessionEvent):
    """Move both ends of a range slider: ``low <= attribute <= high``."""

    path: NodePath
    low: float
    high: float

    def coalesce_key(self) -> tuple:
        # Range moves and threshold moves on the same leaf share one slot:
        # both replace the leaf's predicate state wholesale, so the latest
        # of either kind fully determines it.
        return ("predicate", tuple(self.path))


@dataclass(frozen=True)
class SetThreshold(SessionEvent):
    """Change the threshold of a one-sided comparison predicate."""

    path: NodePath
    value: float

    def coalesce_key(self) -> tuple:
        return ("predicate", tuple(self.path))


@dataclass(frozen=True)
class SetWeight(SessionEvent):
    """Change the weighting factor of the query part at ``path``."""

    path: NodePath
    weight: float

    def coalesce_key(self) -> tuple:
        return ("weight", tuple(self.path))


@dataclass(frozen=True)
class SetPercentageDisplayed(SessionEvent):
    """Change the percentage of the data being displayed (0 < value <= 1)."""

    percentage: float


@dataclass(frozen=True)
class SelectTuple(SessionEvent):
    """Select the data item at a display rank to highlight it in every window."""

    rank: int

    def coalesce_key(self) -> tuple:
        # All selection events share one slot: a later colour-range pick or
        # a ClearSelection replaces an earlier tuple pick entirely.
        return ("selection",)


@dataclass(frozen=True)
class SelectColorRange(SessionEvent):
    """Select a colour (normalized distance) range in one window's slider.

    Only the data items whose distance for ``path`` lies inside the range
    stay highlighted/displayed in all other windows -- the "projection of
    the visual representation to specific color ranges".
    """

    path: NodePath
    distance_low: float
    distance_high: float

    def coalesce_key(self) -> tuple:
        return ("selection",)


@dataclass(frozen=True)
class ClearSelection(SessionEvent):
    """Clear any tuple or colour-range selection."""

    def coalesce_key(self) -> tuple:
        return ("selection",)


@dataclass(frozen=True)
class ToggleAutoRecalculate(SessionEvent):
    """Switch between immediate recalculation and recalculation on demand."""

    enabled: bool


@dataclass(frozen=True)
class DrillDown(SessionEvent):
    """Open the visualization of an inner operator box (double click in Fig. 5)."""

    path: NodePath

    def coalesce_key(self) -> tuple:
        return ("drill-down", tuple(self.path))


#: The events that modify the query: its condition tree (range, threshold,
#: weight) or its display config (percentage).  What
#: :meth:`~repro.core.engine.PreparedQuery.apply_change` applies and the
#: feedback service executes; the other events act on a session's view.
QUERY_EVENTS = (SetQueryRange, SetThreshold, SetWeight, SetPercentageDisplayed)
