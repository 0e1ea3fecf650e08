"""Unit tests for normalization (5.2) and distance combination (AND/OR means)."""

import numpy as np
import pytest

from repro.core.combine import CombinationRule, combine_columns, combine_masks
from repro.core.normalization import (
    NORMALIZED_MAX,
    minmax_normalize,
    normalize_signed,
    reduced_normalization,
)


# -- min-max normalization -------------------------------------------------- #
def test_minmax_maps_to_fixed_range():
    normalized = minmax_normalize(np.array([0.0, 5.0, 10.0]))
    np.testing.assert_allclose(normalized, [0.0, 127.5, 255.0])


def test_minmax_all_zero_distances_stay_yellow():
    np.testing.assert_allclose(minmax_normalize(np.zeros(5)), np.zeros(5))


def test_minmax_all_equal_nonzero_is_maximal():
    np.testing.assert_allclose(minmax_normalize(np.full(4, 7.0)), np.full(4, 255.0))


def test_minmax_nan_maps_to_max():
    normalized = minmax_normalize(np.array([0.0, np.nan, 2.0]))
    assert normalized[1] == NORMALIZED_MAX


def test_minmax_all_nan():
    np.testing.assert_allclose(minmax_normalize(np.full(3, np.nan)), np.full(3, 255.0))


def test_minmax_invalid_target():
    with pytest.raises(ValueError):
        minmax_normalize(np.array([1.0]), target_max=0.0)


# -- reduced (outlier-robust) normalization ---------------------------------- #
def test_reduced_normalization_outlier_robustness():
    """A single extreme outlier must not flatten the rest of the scale.

    This is the paper's motivating example for the improved normalization: a
    plain min-max transform would push all regular distances into a tiny
    fraction of the colour range.
    """
    distances = np.concatenate([np.linspace(0.0, 10.0, 100), [10_000.0]])
    plain = minmax_normalize(distances)
    robust = reduced_normalization(distances, weight=1.0, display_capacity=50)
    # Plain normalization squashes the regular values below 1/255 of the range.
    assert plain[:100].max() < 1.0
    # The robust scheme spreads them over most of the range and saturates the outlier.
    assert robust[:100].max() > 200.0
    assert robust[-1] == NORMALIZED_MAX


def test_reduced_normalization_small_weight_keeps_wider_range():
    distances = np.linspace(0.0, 100.0, 1000)
    strong = reduced_normalization(distances, weight=1.0, display_capacity=100)
    weak = reduced_normalization(distances, weight=0.1, display_capacity=100)
    # With a small weight, more items define the range, so fewer saturate at max.
    assert np.sum(weak == NORMALIZED_MAX) < np.sum(strong == NORMALIZED_MAX)


def test_reduced_normalization_monotone():
    distances = np.sort(np.random.default_rng(0).uniform(0, 50, 500))
    normalized = reduced_normalization(distances, weight=0.8, display_capacity=100)
    assert np.all(np.diff(normalized) >= -1e-12)


def test_reduced_normalization_validation():
    with pytest.raises(ValueError):
        reduced_normalization(np.array([1.0]), weight=1.0, display_capacity=0)
    with pytest.raises(ValueError):
        reduced_normalization(np.array([1.0]), weight=1.5, display_capacity=10)


def test_reduced_normalization_empty_and_all_nan():
    assert len(reduced_normalization(np.empty(0), 1.0, 10)) == 0
    np.testing.assert_allclose(
        reduced_normalization(np.full(3, np.nan), 1.0, 10), np.full(3, 255.0)
    )


def test_reduced_normalization_constant_distances():
    np.testing.assert_allclose(reduced_normalization(np.zeros(5), 1.0, 10), np.zeros(5))
    np.testing.assert_allclose(reduced_normalization(np.full(5, 3.0), 1.0, 10), np.full(5, 255.0))


# -- signed normalization ------------------------------------------------------ #
def test_normalize_signed_preserves_sign_and_scale():
    normalized = normalize_signed(np.array([-10.0, 0.0, 5.0]))
    np.testing.assert_allclose(normalized, [-255.0, 0.0, 127.5])


def test_normalize_signed_all_zero():
    np.testing.assert_allclose(normalize_signed(np.zeros(3)), np.zeros(3))


def test_normalize_signed_nan():
    normalized = normalize_signed(np.array([np.nan, 1.0]))
    assert normalized[0] == NORMALIZED_MAX


# -- combination ---------------------------------------------------------------- #
AND, OR = CombinationRule.AND, CombinationRule.OR


def combine_matrix(rule, matrix, weights):
    """:func:`combine_columns` over the columns of an (items x children) matrix."""
    return combine_columns(rule, list(np.asarray(matrix, dtype=float).T), weights)


def test_combine_and_is_weighted_sum():
    matrix = np.array([[0.0, 10.0], [20.0, 10.0]])
    np.testing.assert_allclose(
        combine_matrix(AND, matrix, np.array([1.0, 0.5])), [5.0, 25.0])


def test_combine_or_exact_child_wins():
    matrix = np.array([[0.0, 200.0], [100.0, 200.0]])
    combined = combine_matrix(OR, matrix, np.array([1.0, 1.0]))
    assert combined[0] == 0.0      # one fulfilled predicate -> overall fulfilled
    assert combined[1] > 0.0


def test_combine_or_zero_weight_is_neutral():
    matrix = np.array([[0.0, 123.0]])
    combined = combine_matrix(OR, matrix, np.array([0.0, 1.0]))
    # The zero-weighted first child contributes a neutral factor of 1.
    np.testing.assert_allclose(combined, [123.0])


def test_combine_and_or_ordering_semantics():
    """AND punishes any bad conjunct; OR forgives it if another is satisfied."""
    matrix = np.array([[0.0, 255.0]])
    weights = np.array([1.0, 1.0])
    assert combine_matrix(AND, matrix, weights)[0] > 0.0
    assert combine_matrix(OR, matrix, weights)[0] == 0.0


def test_combine_dispatch_and_validation():
    matrix = np.array([[1.0, 2.0]])
    weights = np.array([1.0, 1.0])
    np.testing.assert_allclose(combine_matrix(AND, matrix, weights), [3.0])
    np.testing.assert_allclose(combine_matrix(OR, matrix, weights), [2.0])
    with pytest.raises(ValueError):
        combine_columns(AND, [], weights)
    with pytest.raises(ValueError):
        combine_matrix(AND, matrix, np.array([1.0]))
    with pytest.raises(ValueError):
        combine_matrix(AND, matrix, np.array([2.0, 1.0]))


def test_combine_masks_reduces_children_into_a_fresh_mask():
    a = np.array([True, True, False, False])
    b = np.array([True, False, True, False])
    before = a.copy()
    for rule, expected in ((AND, a & b), (OR, a | b)):
        combined = combine_masks(rule, [a, b])
        np.testing.assert_array_equal(combined, expected)
        assert combined is not a and combined is not b
    np.testing.assert_array_equal(a, before)
    np.testing.assert_array_equal(combine_masks(AND, [b]), b)


def test_weighting_shifts_combined_distances():
    """Down-weighting a predicate reduces its influence on the AND combination."""
    matrix = np.array([[200.0, 10.0], [10.0, 200.0]])
    balanced = combine_matrix(AND, matrix, np.array([1.0, 1.0]))
    first_downweighted = combine_matrix(AND, matrix, np.array([0.1, 1.0]))
    assert balanced[0] == pytest.approx(balanced[1])
    assert first_downweighted[0] < first_downweighted[1]


# -- combine_columns single-child fast path --------------------------------- #
def test_combine_columns_single_default_weight_child_shares_array():
    """One child at weight 1: the combined column is the child, no copy."""
    child = np.array([1.0, 2.0, 3.0])
    child.flags.writeable = False
    for rule in (CombinationRule.AND, CombinationRule.OR):
        assert combine_columns(rule, [child], np.array([1.0])) is child


def test_combine_columns_single_child_nondefault_weight_still_copies():
    child = np.array([1.0, 4.0, 9.0])
    scaled = combine_columns(CombinationRule.AND, [child], np.array([0.5]))
    assert scaled is not child
    np.testing.assert_allclose(scaled, child * 0.5)
    powered = combine_columns(CombinationRule.OR, [child], np.array([0.5]))
    assert powered is not child
    np.testing.assert_allclose(powered, np.sqrt(child))


def test_combine_columns_multi_child_keeps_accumulator_copy():
    """The first column doubles as the accumulator: it must never alias."""
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    for rule in (CombinationRule.AND, CombinationRule.OR):
        before = a.copy()
        result = combine_columns(rule, [a, b], np.array([1.0, 1.0]))
        assert result is not a and result is not b
        np.testing.assert_array_equal(a, before)


def test_combine_columns_shared_child_survives_copy_on_write_patch():
    """Patching a column that aliases the combined result must not leak.

    The evaluator stores combined columns read-only and patches them
    copy-on-write (ChunkedColumn), so sharing the child array is safe:
    the patch writes into fresh chunks, never into the shared base.
    """
    from repro.core.chunks import as_chunked
    from repro.core.shard import shard_bounds
    child = np.linspace(0.0, 255.0, 256)
    combined = combine_columns(CombinationRule.AND, [child], np.array([1.0]))
    assert combined is child
    snapshot = combined.copy()
    chunked = as_chunked(combined, shard_bounds(256, 8))
    # Shards 0 and 6 of 32 rows each are replaced whole.
    patched = chunked.replaced([0, 6], [np.full(32, -1.0), np.full(32, -2.0)])
    # The shared array is untouched by the patch...
    np.testing.assert_array_equal(combined, snapshot)
    # ...and writing through it is impossible: sharing froze it.
    with pytest.raises(ValueError):
        combined[0] = 0.0
    expected = snapshot.copy()
    expected[0:32] = -1.0
    expected[192:224] = -2.0
    np.testing.assert_array_equal(np.asarray(patched), expected)
