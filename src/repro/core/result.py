"""Result data model: per-node feedback and the overall query feedback.

The :class:`QueryFeedback` object is what the visualization layer consumes.
It records, for every node of the query tree, the normalized distances of
all data items, plus the subset of items chosen for display and their
relevance ordering.  The per-predicate windows use the *same ordering* as
the overall result window so that pixels at the same relative position
refer to the same data item -- the positional linking that lets the user
relate windows to each other.

The whole-table relevance column is derived on first read, from the root's
normalized distances: no frame the service ships contains it, so an
execution does not build it.  Frames are numbered by whoever puts them on
the wire (the service session), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.query.expr import NodePath
from repro.storage.table import Table

if TYPE_CHECKING:
    from repro.core.relevance import RelevanceScale

__all__ = ["NodeFeedback", "FeedbackStatistics", "QueryFeedback"]


@dataclass
class NodeFeedback:
    """Distances and fulfilment information for one node of the query tree."""

    path: NodePath
    label: str
    weight: float
    is_leaf: bool
    #: Normalized distances (0..255) for *all* data items of the evaluation table.
    normalized_distances: np.ndarray
    #: Signed raw distances, present when the predicate supports direction.
    signed_distances: np.ndarray | None
    #: Boolean mask of items exactly fulfilling this (sub)condition.
    exact_mask: np.ndarray
    #: Raw (pre-normalization) absolute or combined distances.
    raw_distances: np.ndarray

    @property
    def result_count(self) -> int:
        """Number of items exactly fulfilling this node ("# of results" row)."""
        return int(np.sum(self.exact_mask))

    def restrictiveness(self) -> float:
        """Mean normalized distance in [0, 1]: 1 = maximally restrictive (dark window).

        "if a window is getting darker (brighter), the corresponding
        selection predicate is getting more (less) restrictive".
        """
        if len(self.normalized_distances) == 0:
            return 0.0
        return float(np.mean(self.normalized_distances)) / 255.0


@dataclass(frozen=True)
class FeedbackStatistics:
    """The numbers shown on the left of the query modification part (Fig. 4/5)."""

    num_objects: int
    num_displayed: int
    percentage_displayed: float
    num_results: int

    def as_dict(self) -> dict[str, Any]:
        """Plain dictionary, convenient for printing benchmark rows."""
        return {
            "# objects": self.num_objects,
            "# displayed": self.num_displayed,
            "% displayed": round(self.percentage_displayed * 100.0, 1),
            "# of results": self.num_results,
        }


@dataclass
class QueryFeedback:
    """Complete feedback for one query evaluation."""

    table: Table
    query_description: str
    node_feedback: dict[NodePath, NodeFeedback]
    #: Indices (into ``table``) of the displayed data items, in relevance order
    #: (most relevant first); this is the order the spiral arrangement consumes.
    display_order: np.ndarray
    statistics: FeedbackStatistics
    #: The mapping and the distance range :attr:`relevance` is derived with.
    relevance_scale: RelevanceScale
    target_max: float
    #: Capacity (in data items) that was used for reduction/normalization.
    display_capacity: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @cached_property
    def relevance(self) -> np.ndarray:
        """Relevance factor per data item of the full table (1 = exact answer).

        Computed on first read and cached, read-only.
        """
        from repro.core.relevance import relevance_factors  # imports this module

        relevance = relevance_factors(np.asarray(self.overall.normalized_distances),
                                      self.relevance_scale, self.target_max)
        relevance.flags.writeable = False
        return relevance

    @property
    def overall(self) -> NodeFeedback:
        """Feedback of the root node (the overall result window)."""
        return self.node_feedback[()]

    @property
    def paths(self) -> list[NodePath]:
        """All node paths, root first, in pre-order."""
        return sorted(self.node_feedback, key=lambda p: (len(p), p))

    def top_level_paths(self) -> list[NodePath]:
        """Paths of the top-level query parts (one visualization window each)."""
        return sorted(p for p in self.node_feedback if len(p) == 1)

    # ------------------------------------------------------------------ #
    def ordered_distances(self, path: NodePath = ()) -> np.ndarray:
        """Normalized distances of the displayed items, in display order.

        For the root path the sequence is monotonically non-decreasing (the
        overall window is sorted by relevance); for other paths it is the
        same items in the same positions but with that node's distances --
        exactly how the per-predicate windows keep positional correspondence.
        """
        return self.node_feedback[path].normalized_distances[self.display_order]

    def ordered_signed_distances(self, path: NodePath) -> np.ndarray | None:
        """Signed distances of the displayed items in display order (or None)."""
        signed = self.node_feedback[path].signed_distances
        if signed is None:
            return None
        return signed[self.display_order]

    def ordered_relevance(self) -> np.ndarray:
        """Relevance factors of the displayed items, most relevant first."""
        return self.relevance[self.display_order]

    def ordered_values(self, column_name: str) -> np.ndarray:
        """Attribute values of the displayed items, in display order.

        This backs the slider colour-spectrum readouts ("first of color" /
        "last of color") and the selected-tuple display.
        """
        return self.table.column(column_name)[self.display_order]

    def displayed_mask(self) -> np.ndarray:
        """Boolean mask over the full table: True for displayed items."""
        mask = np.zeros(len(self.table), dtype=bool)
        mask[self.display_order] = True
        return mask

    def item_at_rank(self, rank: int) -> int:
        """Table row index of the item at a given display rank (0 = most relevant)."""
        if not 0 <= rank < len(self.display_order):
            raise IndexError(f"rank {rank} out of range for {len(self.display_order)} displayed items")
        return int(self.display_order[rank])

    def rank_of_item(self, row_index: int) -> int | None:
        """Display rank of a table row, or None if the item is not displayed."""
        positions = np.nonzero(self.display_order == row_index)[0]
        return int(positions[0]) if len(positions) else None

    def selected_tuple(self, rank: int) -> dict[str, Any]:
        """Attribute values of the item at ``rank`` (the "selected tuple" field)."""
        return self.table.row(self.item_at_rank(rank))

    # ------------------------------------------------------------------ #
    def window_summary(self) -> dict[str, dict[str, float]]:
        """Per-window summary: restrictiveness, result count and yellow share.

        The yellow share is the fraction of *displayed* items whose distance
        for that node is exactly 0 (the size of the yellow region in the
        middle of the window).
        """
        summary: dict[str, dict[str, float]] = {}
        for path in self.paths:
            node = self.node_feedback[path]
            ordered = self.ordered_distances(path)
            yellow = float(np.mean(ordered == 0.0)) if len(ordered) else 0.0
            summary[node.label] = {
                "restrictiveness": node.restrictiveness(),
                "results": node.result_count,
                "yellow_share": yellow,
            }
        return summary
