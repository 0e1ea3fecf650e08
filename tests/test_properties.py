"""Property-based tests (hypothesis) for the core invariants.

The invariants tested here are the ones the whole visualization rests on:
normalization stays in range and preserves order, the AND/OR combination
respects fulfilment semantics, the reduction heuristics never select more
than allowed, the spiral covers windows exactly once, and string distances
behave like distances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.combine import CombinationRule, combine_columns
from repro.core.normalization import NORMALIZED_MAX, minmax_normalize, reduced_normalization
from repro.core.reduction import display_fraction, multipeak_cut, select_by_quantile
from repro.core.relevance import relevance_factors
from repro.distance.strings import character_distance, edit_distance, phonetic_distance
from repro.vis.colormap import VisDBColormap
from repro.vis.spiral import rect_spiral_coords

finite_distances = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=300),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)

weights = st.floats(min_value=0.01, max_value=1.0)


# -- normalization ------------------------------------------------------------ #
@given(finite_distances)
def test_minmax_normalize_stays_in_range(distances):
    normalized = minmax_normalize(distances)
    assert np.all(normalized >= 0.0)
    assert np.all(normalized <= NORMALIZED_MAX)


@given(finite_distances)
def test_minmax_normalize_preserves_order(distances):
    normalized = minmax_normalize(distances)
    order_before = np.argsort(distances, kind="stable")
    assert np.all(np.diff(normalized[order_before]) >= -1e-9)


@given(finite_distances, weights, st.integers(min_value=1, max_value=500))
def test_reduced_normalization_range_and_zero_preservation(distances, weight, capacity):
    normalized = reduced_normalization(distances, weight, capacity)
    assert np.all((normalized >= 0.0) & (normalized <= NORMALIZED_MAX))
    # Exact answers (distance 0) stay exact unless every distance is equal and nonzero.
    if distances.min() == 0.0 and distances.max() > 0.0:
        assert np.all(normalized[distances == 0.0] == 0.0)


@given(finite_distances, weights, st.integers(min_value=1, max_value=500))
def test_reduced_normalization_is_monotone(distances, weight, capacity):
    normalized = reduced_normalization(distances, weight, capacity)
    order = np.argsort(distances, kind="stable")
    assert np.all(np.diff(normalized[order]) >= -1e-9)


# -- combination ----------------------------------------------------------------- #
# Elements are either exactly 0 (a fulfilled predicate) or clearly positive, so
# that floating-point underflow of the geometric-mean product cannot blur the
# "combined distance is zero" semantics the properties assert on.
child_matrix = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 50), st.integers(1, 5)),
    elements=st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=255.0, allow_nan=False)),
)


def combine_matrix(rule, matrix, weights):
    """:func:`combine_columns` over the columns of an (items x children) matrix."""
    return combine_columns(rule, list(matrix.T), weights)


@given(child_matrix)
def test_combine_or_zero_iff_a_full_weight_child_is_zero(matrix):
    weight_vector = np.ones(matrix.shape[1])
    combined = combine_matrix(CombinationRule.OR, matrix, weight_vector)
    any_zero = np.any(matrix == 0.0, axis=1)
    assert np.all((combined == 0.0) == any_zero)


@given(child_matrix)
def test_combine_and_zero_iff_all_children_zero(matrix):
    weight_vector = np.ones(matrix.shape[1])
    combined = combine_matrix(CombinationRule.AND, matrix, weight_vector)
    all_zero = np.all(matrix == 0.0, axis=1)
    assert np.all((combined == 0.0) == all_zero)


@given(child_matrix)
def test_combine_results_are_nonnegative(matrix):
    weight_vector = np.full(matrix.shape[1], 0.5)
    assert np.all(combine_matrix(CombinationRule.AND, matrix, weight_vector) >= 0.0)
    assert np.all(combine_matrix(CombinationRule.OR, matrix, weight_vector) >= 0.0)


# -- relevance -------------------------------------------------------------------- #
@given(arrays(dtype=np.float64, shape=st.integers(1, 200),
              elements=st.floats(min_value=0.0, max_value=255.0, allow_nan=False)))
def test_relevance_factors_in_unit_interval_and_antitone(distances):
    relevance = relevance_factors(distances)
    assert np.all((relevance >= 0.0) & (relevance <= 1.0))
    order = np.argsort(distances, kind="stable")
    assert np.all(np.diff(relevance[order]) <= 1e-9)


# -- reduction ---------------------------------------------------------------------- #
@given(finite_distances, st.floats(min_value=0.0, max_value=1.0))
def test_select_by_quantile_threshold_property(distances, p):
    selected = select_by_quantile(distances, p)
    if p > 0 and len(distances) > 0:
        assert len(selected) >= 1
    if len(selected) > 0 and len(selected) < len(distances):
        not_selected = np.setdiff1d(np.arange(len(distances)), selected)
        assert distances[selected].max() <= distances[not_selected].min() + 1e-9


@given(st.integers(1, 10_000), st.integers(1, 100_000), st.integers(0, 8))
def test_display_fraction_bounds(pixel_budget, n_items, n_predicates):
    fraction = display_fraction(pixel_budget, n_items, n_predicates)
    assert 0.0 <= fraction <= 1.0


@given(
    arrays(dtype=np.float64, shape=st.integers(2, 200),
           elements=st.floats(min_value=0.0, max_value=1e4, allow_nan=False)),
    st.integers(1, 50),
)
@settings(max_examples=50)
def test_multipeak_cut_within_bounds(distances, z):
    distances = np.sort(distances)
    r_min = 1
    r_max = len(distances)
    cut = multipeak_cut(distances, r_min, r_max, z=z)
    assert r_min <= cut <= r_max


# -- spiral --------------------------------------------------------------------------- #
@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=60)
def test_spiral_is_a_bijection(width, height):
    coords = rect_spiral_coords(width, height)
    assert coords.shape == (width * height, 2)
    assert len({(x, y) for x, y in coords}) == width * height
    assert coords[:, 0].max() < width and coords[:, 1].max() < height
    assert coords[:, 0].min() >= 0 and coords[:, 1].min() >= 0


# -- colormap --------------------------------------------------------------------------- #
@given(arrays(dtype=np.float64, shape=st.integers(1, 100),
              elements=st.floats(min_value=0.0, max_value=255.0, allow_nan=False)))
def test_colormap_output_is_valid_rgb(distances):
    colours = VisDBColormap()(distances)
    assert colours.dtype == np.uint8
    assert colours.shape == distances.shape + (3,)


# -- string distances ------------------------------------------------------------------- #
text = st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=122), max_size=12)


@given(text, text)
def test_edit_distance_symmetry_and_identity(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, a) == 0.0
    assert edit_distance(a, b) >= 0.0
    assert edit_distance(a, b) <= max(len(a), len(b))


@given(text, text, text)
@settings(max_examples=60)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c) + 1e-9


@given(text, text)
def test_character_and_phonetic_distances_nonnegative(a, b):
    assert character_distance(a, b) >= 0.0
    assert phonetic_distance(a, b) >= 0.0
    assert character_distance(a, a) == 0.0
    assert phonetic_distance(a, a) == 0.0
