"""Relevance factors: how a normalized combined distance maps to a colour.

The *relevance factor* of a data item is derived from its combined,
normalized distance: items fulfilling the whole query get the maximum
relevance, approximate answers get smaller values the further away they
are.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.normalization import NORMALIZED_MAX

__all__ = ["RelevanceScale", "relevance_factors"]


class RelevanceScale(Enum):
    """How normalized combined distances map to relevance factors."""

    #: ``relevance = 1 - d / d_max`` -- linear, 1 for exact answers, 0 for the
    #: most distant displayed answers.
    LINEAR = "linear"
    #: ``relevance = 1 / (1 + d)`` -- the literal "inverse of the distance
    #: value" reading of the paper, compressed towards zero.
    RECIPROCAL = "reciprocal"


def relevance_factors(normalized_distances: np.ndarray,
                      scale: RelevanceScale = RelevanceScale.LINEAR,
                      target_max: float = NORMALIZED_MAX) -> np.ndarray:
    """Convert normalized distances (``[0, target_max]``) to relevance factors.

    Both scales are monotonically decreasing in the distance, so they induce
    the same display ordering; the linear scale is the default because its
    values spread evenly over the colormap.
    """
    distances = np.asarray(normalized_distances, dtype=float)
    if scale is RelevanceScale.LINEAR:
        return np.clip(1.0 - distances / target_max, 0.0, 1.0)
    if scale is RelevanceScale.RECIPROCAL:
        return 1.0 / (1.0 + np.maximum(distances, 0.0))
    raise ValueError(f"unsupported relevance scale: {scale!r}")
