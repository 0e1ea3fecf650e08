"""Distance normalization (paper section 5.2).

Distances computed by different distance functions "may be in completely
different orders of magnitude", so before they can be combined they are
transformed linearly from their observed range ``[d_min, d_max]`` to a fixed
range (``[0, 255]`` here, matching the paper's example).

A plain min-max transformation is vulnerable to outliers: "a single data
item with an exceptionally high or low value may cause a completely
different transformation, even if the combined distance of this data item
is too high to be displayed".  The paper's improved scheme first restricts
the data considered per selection predicate to a number of items
proportional to ``r / (n · w_j)`` (the less a predicate is weighted, the
more of its distance range is kept) and only then normalizes over the
remaining range.  Items beyond that range saturate at the maximum.
"""

from __future__ import annotations

import numpy as np

from repro.core.reduction import kth_smallest

__all__ = [
    "NORMALIZED_MAX",
    "minmax_normalize",
    "normalization_keep_count",
    "reduced_bounds",
    "bounds_identical",
    "apply_normalization",
    "reduced_normalization",
    "normalize_signed",
]

#: Upper end of the fixed normalization range used throughout the system.
NORMALIZED_MAX = 255.0


def minmax_normalize(distances: np.ndarray, target_max: float = NORMALIZED_MAX) -> np.ndarray:
    """Linear transformation of ``[d_min, d_max]`` to ``[0, target_max]``.

    * NaN distances (items for which no distance is defined, e.g. failing
      negations) map to ``target_max``.
    * If all finite distances are equal they map to 0 when that value is 0
      ("all the data represent completely correct results" -> all yellow)
      and to ``target_max`` otherwise (equally wrong everywhere).
    """
    if target_max <= 0:
        raise ValueError("target_max must be positive")
    distances = np.asarray(distances, dtype=float)
    result = np.full(distances.shape, target_max, dtype=float)
    finite = np.isfinite(distances)
    if not np.any(finite):
        return result
    finite_values = distances[finite]
    d_min = float(finite_values.min())
    d_max = float(finite_values.max())
    if d_max == d_min:
        result[finite] = 0.0 if d_max == 0.0 else target_max
        return result
    result[finite] = (finite_values - d_min) / (d_max - d_min) * target_max
    return result


def normalization_keep_count(weight: float, display_capacity: int, n: int) -> int:
    """Number of items whose distances define the reduced normalization range.

    Proportional to ``r / w_j`` (inverse proportionality to the weight), but
    at least the display capacity itself and at most all ``n`` items.  This
    is the ``keep`` used by :func:`reduced_normalization`; it is exposed
    separately so a sharded evaluation can resolve the same order
    statistic (:func:`reduced_bounds`) and certify it shard by shard.
    """
    if display_capacity <= 0:
        raise ValueError("display_capacity must be positive")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight}")
    effective_weight = max(weight, 1e-6)
    return int(np.clip(np.ceil(display_capacity / effective_weight), 1, max(n, 1)))


def reduced_bounds(distances: np.ndarray, keep: int) -> tuple[float, float] | None:
    """The ``(d_min, d_max)`` of the reduced normalization, or None if no finite value.

    ``d_max`` is the ``keep``-th smallest finite distance (the whole finite
    range when ``keep`` covers it); both bounds are exact array elements.
    This is the one resolver of the bounds: the monolithic
    :func:`reduced_normalization`, the sharded evaluator and the
    out-of-process pipeline's coordinator all call it over the whole
    column.  A tie block at the minimum that reaches rank ``keep`` (every
    exact answer has distance 0) answers without a partition.
    """
    # No finite mask outlives this line: a byte-wide mask alive next to a
    # selection's scratch copy would add a byte a row to its peak.
    finite = (distances if np.isfinite(distances).all()
              else distances[np.isfinite(distances)])
    if len(finite) == 0:
        return None
    if keep >= len(finite):
        d_max = float(finite.max())
    else:
        d_max = float(kth_smallest(finite, keep))
    return float(finite.min()), d_max


def bounds_identical(a: tuple[float, float] | None,
                     b: tuple[float, float] | None) -> bool:
    """True when two resolved ``(d_min, d_max)`` pairs are the same *bits*.

    This is the gate of the incremental renormalization short-circuit: when
    an event leaves the resolved bounds bit-identical, the elementwise
    transform of every unchanged value is bit-identical too, so clean
    shards' normalized slices can be reused verbatim.  Plain ``==`` on the
    floats is exactly the right comparison (bounds are exact column
    elements, never recomputed arithmetic) *except* for NaN, which can
    legitimately appear as a resolved bound of an all-NaN-distance column
    and must compare equal to itself here.
    """
    if a is None or b is None:
        return a is None and b is None

    def same(x: float, y: float) -> bool:
        return x == y or (np.isnan(x) and np.isnan(y))

    return same(a[0], b[0]) and same(a[1], b[1])


def apply_normalization(distances: np.ndarray, d_min: float | None, d_max: float | None,
                        target_max: float = NORMALIZED_MAX) -> np.ndarray:
    """Elementwise reduced normalization against precomputed global bounds.

    ``d_min``/``d_max`` are the bounds :func:`reduced_normalization` derives
    from the *whole* distance column (``None`` meaning no finite value
    exists anywhere).  Because the transform is purely elementwise once the
    bounds are fixed, applying it shard by shard and concatenating yields a
    result bit-identical to the monolithic call -- the invariant the
    sharded evaluator relies on.
    """
    distances = np.asarray(distances, dtype=float)
    n = len(distances)
    if n == 0:
        return distances.copy()
    if d_min is None or d_max is None:
        return np.full(n, target_max, dtype=float)
    finite = np.isfinite(distances)
    all_finite = bool(finite.all())
    if d_max == d_min:
        result = np.full(n, target_max, dtype=float)
        result[finite] = 0.0 if d_max == 0.0 else target_max
        return result
    if all_finite:
        scaled = (distances - d_min) / (d_max - d_min) * target_max
        return np.clip(scaled, 0.0, target_max, out=scaled)
    result = np.full(n, target_max, dtype=float)
    scaled = (distances[finite] - d_min) / (d_max - d_min) * target_max
    result[finite] = np.clip(scaled, 0.0, target_max)
    return result


def reduced_normalization(distances: np.ndarray, weight: float, display_capacity: int,
                          target_max: float = NORMALIZED_MAX) -> np.ndarray:
    """The paper's outlier-robust normalization for one selection predicate.

    Parameters
    ----------
    distances:
        Absolute distances of all ``n`` data items for this predicate.
    weight:
        The predicate's weighting factor ``w_j`` in ``[0, 1]``.  Smaller
        weights keep a larger share of the distance range, because "the less
        a selection predicate is weighted, the higher is the probability
        that data with a greater distance for this selection predicate are
        needed".
    display_capacity:
        ``r`` -- the number of data items that can be displayed.

    Returns
    -------
    Normalized distances in ``[0, target_max]``; items whose distance falls
    outside the retained range saturate at ``target_max``.
    """
    keep = normalization_keep_count(weight, display_capacity, len(distances))
    distances = np.asarray(distances, dtype=float)
    if len(distances) == 0:
        return distances.copy()
    bounds = reduced_bounds(distances, keep)
    d_min, d_max = bounds if bounds is not None else (None, None)
    return apply_normalization(distances, d_min, d_max, target_max=target_max)


def normalize_signed(signed_distances: np.ndarray,
                     target_max: float = NORMALIZED_MAX) -> np.ndarray:
    """Normalize signed distances to ``[-target_max, target_max]`` preserving the sign.

    Used by the 2D arrangement (Fig. 1b), which needs the direction of the
    distance as well as its magnitude.  Positive and negative sides are
    scaled by the same factor (the larger absolute bound) so that the
    ordering of magnitudes is preserved across the sign boundary.
    """
    signed = np.asarray(signed_distances, dtype=float)
    result = np.full(signed.shape, target_max, dtype=float)
    finite = np.isfinite(signed)
    if not np.any(finite):
        return result
    bound = float(np.max(np.abs(signed[finite])))
    if bound == 0.0:
        result[finite] = 0.0
        return result
    result[finite] = signed[finite] / bound * target_max
    return result
