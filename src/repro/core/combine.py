"""Combining per-predicate distances into a single distance (section 5.2).

For each data item ``x_i`` with normalized per-child distances ``d_ij`` and
child weights ``w_j``:

* ``AND``-connected parts combine via the **weighted arithmetic mean**
  ``sum_j w_j * d_ij`` -- every child contributes, so an item must be close
  to *all* conjuncts to obtain a small combined distance;
* ``OR``-connected parts combine via the **weighted geometric mean**
  ``prod_j d_ij ** w_j`` -- a single exactly-fulfilled child (distance 0)
  drives the combined distance to 0, matching disjunction semantics.

Combined distances are re-normalized before being used as input to the next
tree level (handled by the evaluator, not here).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["CombinationRule", "combine_columns", "combine_masks"]


class CombinationRule(Enum):
    """How a composite node combines its children's distances."""

    AND = "and"
    OR = "or"


def combine_columns(rule: CombinationRule, columns: list[np.ndarray],
                    weights: np.ndarray) -> np.ndarray:
    """Combine the children's normalized columns under ``rule``.

    ``AND`` is the paper's plain weighted sum (not divided by the weight
    total; the re-normalization that follows makes the scale irrelevant).
    ``OR`` is the weighted product of powers; a child of weight 0
    contributes the neutral factor ``0 ** 0 == 1``, i.e. it is ignored.
    Default-weight columns skip the scaling or power pass, which is exact
    (``x * 1.0 == x ** 1.0 == x``).  The columns are accumulated one by
    one, never stacked into an (items x children) matrix.
    """
    weight_array = np.asarray(weights, dtype=float)
    if len(columns) == 0 or weight_array.shape != (len(columns),):
        raise ValueError(
            f"weights must have one entry per child ({len(columns)}), "
            f"got shape {weight_array.shape}"
        )
    if np.any((weight_array < 0) | (weight_array > 1)):
        raise ValueError("weights must lie in [0, 1]")
    if len(columns) == 1 and weight_array[0] == 1.0:
        # Single default-weight child under either rule: the combined
        # column *is* the child column (``x * 1.0 == x`` and
        # ``x ** 1.0 == x`` exactly).  Share the cached array rather than
        # copying it -- callers treat combined columns as read-only (the
        # evaluator freezes or copy-on-write-patches them), so aliasing
        # the child is safe.  Multi-child combinations below still copy:
        # the first column doubles as the accumulator there.
        return columns[0]
    if rule is CombinationRule.AND:
        # ``x * 1.0 == x`` exactly, so default-weight columns skip the
        # scaling pass and accumulate directly.
        first = weight_array[0]
        result = columns[0].copy() if first == 1.0 else columns[0] * first
        for column, weight in zip(columns[1:], weight_array[1:]):
            if weight == 1.0:
                result += column
            else:
                result += column * weight
        return result
    if rule is CombinationRule.OR:
        def factor(column: np.ndarray, weight: float) -> np.ndarray:
            return column if weight == 1.0 else np.power(column, weight)

        result = np.array(factor(columns[0], weight_array[0]), copy=True)
        for column, weight in zip(columns[1:], weight_array[1:]):
            result *= factor(column, weight)
        return result
    raise ValueError(f"unsupported combination rule: {rule!r}")


def combine_masks(rule: CombinationRule, masks: list[np.ndarray]) -> np.ndarray:
    """The fulfilment mask of a composite: its children's masks ANDed or ORed.

    Returns a fresh array; the children's masks are never written.
    """
    op = np.logical_and if rule is CombinationRule.AND else np.logical_or
    result = np.array(masks[0], dtype=bool)
    for mask in masks[1:]:
        op(result, mask, out=result)
    return result
