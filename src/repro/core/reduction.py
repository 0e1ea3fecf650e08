"""Heuristics to reduce the amount of data displayed (paper section 5.1).

The number of data items that can be represented is bounded by the number
of pixels, so VisDB must decide *which* distances to show:

* **α-quantile cut** -- present the items whose combined distance lies in
  ``[0, p-quantile]`` where ``p = r / (n · (#sp + 1))``: ``r`` distance
  values fit on screen, and each item produces one value per selection
  predicate plus one for the overall result.
* **Signed window** -- when distances carry direction, the window
  ``[α₀·(1−p), α₀·(1−p)+p]`` of quantiles around the zero point is used,
  where ``α₀`` is the quantile at which the distance is 0.
* **Multi-peak heuristic** -- when the distance density has several peaks it
  is better to cut between the peaks: for candidate cut ranks
  ``i ∈ [r_min, r_max]`` compute ``s_i = Σ_{j=i−z..i+z} |d_i − d_j|`` over the
  sorted distances and cut at the rank with the largest ``s_i`` (the widest
  local gap).  The incremental evaluation is O(z + r_max − r_min).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "ReductionMethod",
    "display_fraction",
    "quantile_threshold",
    "select_by_quantile",
    "signed_quantile_window",
    "multipeak_cut",
    "select_display_set",
    "rank_counts",
    "ranks_hold",
    "ShardCounts",
    "quantile_rank_bounds",
]


class ReductionMethod(Enum):
    """Which heuristic decides how many items are displayed."""

    QUANTILE = "quantile"
    MULTIPEAK = "multipeak"
    PERCENTAGE = "percentage"


def display_fraction(pixel_budget: int, n_items: int, n_selection_predicates: int) -> float:
    """The paper's ``p = r / (n · (#sp + 1))`` clipped into ``[0, 1]``.

    ``pixel_budget`` is ``r`` -- how many distance values fit on the screen;
    each data item consumes ``#sp + 1`` of them (one per predicate window
    plus the overall window).
    """
    if pixel_budget <= 0:
        raise ValueError("pixel_budget must be positive")
    if n_selection_predicates < 0:
        raise ValueError("n_selection_predicates must be non-negative")
    if n_items <= 0:
        return 1.0
    return float(np.clip(pixel_budget / (n_items * (n_selection_predicates + 1)), 0.0, 1.0))


def quantile_threshold(distances: np.ndarray, p: float) -> float:
    """The ``p``-quantile of the finite distances (NaN-safe)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    distances = np.asarray(distances, dtype=float)
    finite = distances[np.isfinite(distances)]
    if len(finite) == 0:
        return float("nan")
    return float(np.quantile(finite, p))


def select_by_quantile(distances: np.ndarray, p: float) -> np.ndarray:
    """Indices of items whose distance lies in ``[0, p-quantile]``.

    NaN distances (undefined) are never selected.  The number of selected
    items can slightly exceed ``p·n`` when there are ties at the threshold,
    matching the quantile definition in the paper.
    """
    distances = np.asarray(distances, dtype=float)
    threshold = quantile_threshold(distances, p)
    if np.isnan(threshold):
        return np.empty(0, dtype=np.intp)
    mask = np.isfinite(distances) & (distances <= threshold)
    return np.nonzero(mask)[0]


def signed_quantile_window(signed_distances: np.ndarray, p: float) -> np.ndarray:
    """Display window for signed distances: quantiles ``[α₀(1−p), α₀(1−p)+p]``.

    ``α₀`` is the quantile of the value 0 (the fraction of negative
    distances), so the retained window always brackets the correct answers
    and extends ``p`` quantile-mass across them, exactly as in section 5.1.
    Returns the indices of the retained items.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    signed = np.asarray(signed_distances, dtype=float)
    finite_mask = np.isfinite(signed)
    finite = signed[finite_mask]
    if len(finite) == 0:
        return np.empty(0, dtype=np.intp)
    alpha0 = float(np.mean(finite < 0.0))
    low_q = alpha0 * (1.0 - p)
    high_q = min(low_q + p, 1.0)
    low = np.quantile(finite, low_q)
    high = np.quantile(finite, high_q)
    mask = finite_mask & (signed >= low) & (signed <= high)
    return np.nonzero(mask)[0]


def multipeak_cut(sorted_distances: np.ndarray, r_min: int, r_max: int, z: int | None = None) -> int:
    """Choose the display cut-off rank for multi-peaked distance densities.

    Parameters
    ----------
    sorted_distances:
        Distances sorted in ascending order.
    r_min, r_max:
        The acceptable range for the number of displayed items.
    z:
        Half-width of the neighbourhood used for the gap statistic
        ``s_i = Σ_{j=i−z..i+z} |d_i − d_j|``.  The paper requires
        ``2 < z ≪ r_max − r_min``; the default is ``max(3, (r_max−r_min)//10)``.

    Returns
    -------
    The rank (number of items to display) with the largest ``s_i``, i.e. the
    cut sits just inside the widest local gap of the sorted distances.
    """
    distances = np.asarray(sorted_distances, dtype=float)
    n = len(distances)
    if n == 0:
        return 0
    if np.any(np.diff(distances) < -1e-12):
        raise ValueError("sorted_distances must be sorted in ascending order")
    r_min = int(np.clip(r_min, 1, n))
    r_max = int(np.clip(r_max, r_min, n))
    if z is None:
        z = max(3, (r_max - r_min) // 10)
    if z < 1:
        raise ValueError("z must be at least 1")
    # For ascending d and window j in [i-z, i+z]:
    #   s_i = sum_{j>i} (d_j - d_i) + sum_{j<i} (d_i - d_j)
    #       = (suffix window sum) - (prefix window sum) + d_i * (#prefix - #suffix)
    # computed with a cumulative sum in O(n).
    cumulative = np.concatenate(([0.0], np.cumsum(distances)))

    def window_sum(lo: int, hi: int) -> float:
        """Sum of distances over ranks [lo, hi) clipped to the valid range."""
        lo = max(lo, 0)
        hi = min(hi, n)
        if hi <= lo:
            return 0.0
        return float(cumulative[hi] - cumulative[lo])

    best_rank = r_min
    best_score = -np.inf
    for rank in range(r_min, r_max + 1):
        i = rank - 1  # index of the last displayed item
        prefix_lo, prefix_hi = i - z, i
        suffix_lo, suffix_hi = i + 1, i + z + 1
        n_prefix = max(0, min(prefix_hi, n) - max(prefix_lo, 0))
        n_suffix = max(0, min(suffix_hi, n) - max(suffix_lo, 0))
        score = (
            window_sum(suffix_lo, suffix_hi)
            - window_sum(prefix_lo, prefix_hi)
            + distances[i] * (n_prefix - n_suffix)
        )
        if score > best_score:
            best_score = score
            best_rank = rank
    return best_rank


# --------------------------------------------------------------------------- #
# Order statistics
# --------------------------------------------------------------------------- #
def kth_smallest(values: np.ndarray, k: int) -> float:
    """The ``k``-th smallest of ``values`` (1-based, ``k <= len(values)``).

    A tie block at the minimum that reaches rank ``k`` -- every exact
    answer has distance 0 -- answers without a partition.
    """
    lowest = values.min()
    if np.count_nonzero(values == lowest) >= k:
        return lowest
    return np.partition(values, k - 1)[k - 1]


def first_ties(values: np.ndarray, threshold: float, need: int, stop: int) -> np.ndarray:
    """Positions of ``values == threshold`` in a prefix holding ``need`` of them.

    The prefix starts at ``stop`` rows (``stop >= 1`` whenever ``need`` is
    positive) and doubles until it holds at least ``need`` ties or covers
    every row, so the first ties of a long tie block are found without a
    pass over all of it.
    """
    ties = np.flatnonzero(values[:stop] == threshold)
    while len(ties) < need and stop < len(values):
        stop *= 2
        ties = np.flatnonzero(values[:stop] == threshold)
    return ties


def select_display_set(distances: np.ndarray, capacity: int, n_selection_predicates: int,
                       method: ReductionMethod = ReductionMethod.QUANTILE,
                       percentage: float | None = None,
                       multipeak_slack: float = 0.5,
                       multipeak_z: int | None = None) -> np.ndarray:
    """Select the indices of the data items to display, by the chosen heuristic.

    ``capacity`` is the pixel budget ``r`` (distance values displayable).
    ``percentage`` (0..1] overrides the capacity-derived fraction when the
    user sets the "% displayed" slider explicitly.
    """
    distances = np.asarray(distances, dtype=float)
    n = len(distances)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if method is ReductionMethod.PERCENTAGE or percentage is not None:
        if percentage is None:
            raise ValueError("percentage reduction requires a percentage value")
        if not 0.0 < percentage <= 1.0:
            raise ValueError(f"percentage must be in (0, 1], got {percentage}")
        target = max(1, int(round(percentage * n)))
        finite = np.isfinite(distances)
        masked = distances if finite.all() else np.where(finite, distances, np.inf)
        if target >= n:
            return np.arange(n, dtype=np.intp)
        # The displayed set is the ``target`` smallest distances with ties
        # broken by ascending index (what a stable argsort would select);
        # a partition plus explicit tie handling finds the same set in O(n)
        # instead of O(n log n).
        threshold = masked[np.argpartition(masked, target - 1)[target - 1]]
        below = np.nonzero(masked < threshold)[0]
        ties = np.nonzero(masked == threshold)[0][: target - len(below)]
        return np.sort(np.concatenate([below, ties]))
    p = display_fraction(capacity, n, n_selection_predicates)
    if method is ReductionMethod.QUANTILE:
        return select_by_quantile(distances, p)
    if method is ReductionMethod.MULTIPEAK:
        return _select_multipeak(distances, p, multipeak_slack, multipeak_z)
    raise ValueError(f"unsupported reduction method: {method!r}")


def _select_multipeak(distances: np.ndarray, p: float,
                      multipeak_slack: float,
                      multipeak_z: int | None) -> np.ndarray:
    n = len(distances)
    finite_order = np.argsort(np.where(np.isfinite(distances), distances, np.inf),
                              kind="stable")
    n_finite = int(np.sum(np.isfinite(distances)))
    if n_finite == 0:
        return np.empty(0, dtype=np.intp)
    target = max(1, int(round(p * n)))
    r_min = max(1, int(round(target * (1.0 - multipeak_slack))))
    r_max = min(n_finite, max(r_min, int(round(target * (1.0 + multipeak_slack)))))
    sorted_distances = distances[finite_order[:n_finite]]
    cut = multipeak_cut(sorted_distances, r_min, r_max, z=multipeak_z)
    return np.sort(finite_order[:cut])


# --------------------------------------------------------------------------- #
# The order-statistic certificate
# --------------------------------------------------------------------------- #
def rank_counts(values: np.ndarray, pivots: Sequence[float]) -> tuple:
    """Counting row of one shard against candidate order statistics.

    Returns ``(finite_count, count < v, count <= v, ...)``: the number of
    finite values, then one ``(<, <=)`` pair per pivot ``v``.  Comparisons
    against a NaN pivot are all False, yielding zero counts -- which can
    only fail a certificate, never falsely pass it.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        values = values[finite]
    row = [float(len(values))]
    for v in pivots:
        row += [float(np.count_nonzero(values < v)),
                float(np.count_nonzero(values <= v))]
    return tuple(row)


def ranks_hold(totals: np.ndarray, ranks: Sequence[int]) -> bool:
    """Do summed :func:`rank_counts` rows prove each pivot holds its rank?

    The pivot ``v`` is the rank-``k`` (0-based) order statistic of the
    counted values iff ``count(< v) <= k < count(<= v)``.
    """
    return all(totals[1 + 2 * j] <= k < totals[2 + 2 * j]
               for j, k in enumerate(ranks))


@dataclass(frozen=True)
class ShardCounts:
    """Per-shard counting rows that certify order statistics of one column.

    ``rows[i]`` is shard ``i``'s :func:`rank_counts`-shaped row against the
    ``pivots``, and ``count`` the number of ranked values (None: any
    number).  After an event that changed the column only inside some
    shards, recounting those shards and summing the rows proves -- or
    refutes (:func:`ranks_hold`) -- that each ``pivots[j]`` is still the
    order statistic of 0-based rank ``ranks[j]``, without touching a clean
    shard.  The ranks are handed to each certification, not stored: they
    are a function of the event's own parameters, so the same rows certify
    the bounds under a new ``keep``.  One certificate serves the four
    statistics kept per shard, which all take one step
    (``repro.core.shard.refresh_statistic``, the only caller of
    :meth:`patched`):

    * normalization bounds: ``d_min`` at rank 0 and ``d_max`` at rank
      ``min(keep, m) - 1`` of the ``m`` finite distances;
    * the quantile reduction: the two order statistics ``np.quantile``
      interpolates between (:func:`quantile_rank_bounds`);
    * the percentage displayed set: its threshold at rank
      ``min(target, n) - 1`` of all ``n`` rows (non-finite distances count
      as ``+inf``);
    * the result count: no pivot, the rows are per-shard popcounts.
    """

    pivots: tuple
    count: int | None
    rows: np.ndarray

    def patched(self, dirty: Sequence[int], fresh: Sequence[tuple],
                ranks: Sequence[int]) -> "ShardCounts | None":
        """These counts with the ``dirty`` shards' rows replaced by ``fresh``.

        None when the summed rows refute the certificate: the ranked count
        changed, or some pivot no longer holds its rank in ``ranks``.
        """
        rows = self.rows.copy()
        for i, row in zip(dirty, fresh):
            rows[i] = row
        totals = rows.sum(axis=0)
        if ((self.count is not None and int(totals[0]) != self.count)
                or not ranks_hold(totals, ranks)):
            return None
        return ShardCounts(self.pivots, self.count, rows)


def quantile_rank_bounds(m: int, p: float) -> tuple[int, ...]:
    """0-based ranks of the order statistics ``np.quantile`` interpolates.

    With the default linear interpolation the ``p``-quantile of ``m``
    sorted finite values is a function of exactly two order statistics:
    the values at ranks ``floor(h)`` and ``ceil(h)`` where
    ``h = p * (m - 1)`` (the same virtual index numpy computes).  Proving
    those two values unchanged therefore proves the quantile *float*
    unchanged, without ever reproducing the interpolation arithmetic.
    No values have no order statistic: ``()``.
    """
    if m <= 0:
        return ()
    h = p * (m - 1)
    return int(np.floor(h)), int(np.ceil(h))
