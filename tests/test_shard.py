"""Property tests for the sharded evaluator's global steps.

The sharded evaluator's bit-identity contract rests on two global steps:
one whole-column resolve of each node's ``(d_min, d_max)``
(:func:`~repro.core.normalization.reduced_bounds`) with exact per-shard
counting rows, and the merge algebra of per-shard top-k candidate sets
(:mod:`repro.core.reduction`).  These tests pin the invariants any future
backend must preserve:

* the elementwise transform applied shard by shard against the resolved
  bounds equals the monolithic normalization bit for bit, and every
  shard's counting row is exact, whatever ties, NaN or infinities it holds;
* top-k merging is associative and order-independent, and a top-k partial
  holds at most ``target`` rows, its own top ``target`` under the (value,
  row) order, however many rows tie at its threshold;
* resolved results equal the monolithic computation bit for bit,
  including ties at the capacity boundary, where the stable-argsort tie
  rule (ascending global row index) must survive merging.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import (
    apply_normalization,
    normalization_keep_count,
    reduced_bounds,
    reduced_normalization,
)
from repro.core.reduction import (
    ReductionMethod,
    merge_topk_candidates,
    merge_topk_candidates_many,
    rank_counts,
    resolve_topk,
    select_display_set,
    topk_candidates,
)
from repro.core.shard import (
    NodeDelta,
    ShardedPlanEvaluator,
    ShardedTable,
    shard_bounds,
)
from repro.storage.table import Table


def random_column(rng: np.random.Generator, n: int, *, nan_fraction: float = 0.0,
                  tie_heavy: bool = False) -> np.ndarray:
    """A distance-like column; quantized values force ties when asked."""
    values = rng.uniform(0.0, 100.0, n)
    if tie_heavy:
        values = np.round(values / 10.0) * 10.0
    if nan_fraction > 0.0 and n > 0:
        values[rng.random(n) < nan_fraction] = np.nan
    return values


def random_cuts(rng: np.random.Generator, n: int, pieces: int) -> list[tuple[int, int]]:
    """A random (not necessarily balanced) partition of [0, n) into ranges."""
    cuts = np.sort(rng.integers(0, n + 1, size=max(pieces - 1, 0)))
    edges = [0, *cuts.tolist(), n]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


# --------------------------------------------------------------------------- #
# shard_bounds
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n,k", [(0, 1), (0, 5), (1, 1), (10, 3), (10, 10), (7, 32), (100, 7)])
def test_shard_bounds_cover_and_balance(n, k):
    bounds = shard_bounds(n, k)
    assert len(bounds) == k
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    sizes = [stop - start for start, stop in bounds]
    assert all(s >= 0 for s in sizes)
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    for (_, stop), (start, _) in zip(bounds, bounds[1:]):
        assert stop == start


def test_shard_bounds_validation():
    with pytest.raises(ValueError):
        shard_bounds(10, 0)
    with pytest.raises(ValueError):
        shard_bounds(-1, 2)


# --------------------------------------------------------------------------- #
# (d_min, d_max): one resolve, exact counting rows
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(12))
def test_distance_bounds_match_monolithic_normalization(seed):
    """Whole-column bounds + shard-wise transform == reduced_normalization, bitwise."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 400))
    values = random_column(rng, n, nan_fraction=float(rng.choice([0.0, 0.2, 0.9])))
    weight = float(rng.choice([0.05, 0.3, 1.0]))
    capacity = int(rng.integers(1, 2 * n + 2))
    keep = normalization_keep_count(weight, capacity, n)
    cuts = random_cuts(rng, n, int(rng.integers(1, 9)))
    resolved = reduced_bounds(values, keep)
    finite = np.sort(values[np.isfinite(values)])
    assert resolved == ((finite[0], finite[min(keep, len(finite)) - 1])
                        if len(finite) else None)
    d_min, d_max = resolved if resolved is not None else (None, None)
    sharded = np.concatenate([
        apply_normalization(values[a:b], d_min, d_max) for a, b in cuts
    ])
    np.testing.assert_array_equal(
        sharded, reduced_normalization(values, weight, capacity)
    )


def test_distance_bounds_all_shards_nan_resolves_to_none():
    assert reduced_bounds(np.full(20, np.nan), 3) is None
    np.testing.assert_array_equal(
        apply_normalization(np.full(5, np.nan), None, None),
        reduced_normalization(np.full(5, np.nan), 1.0, 3),
    )


@st.composite
def tie_heavy_columns(draw):
    """A distance column with a block of exact answers (0.0) at the
    minimum, finite values above it, NaN and +-inf, in shuffled order."""
    ties = draw(st.integers(0, 120))
    rest = draw(st.lists(st.one_of(
        st.floats(0.0, 100.0, allow_nan=False).filter(lambda v: v > 0.0),
        st.sampled_from([np.nan, np.inf, -np.inf])), max_size=60))
    values = np.array([0.0] * ties + rest, dtype=float)
    order = draw(st.permutations(range(len(values))))
    return values[list(order)] if len(values) else np.zeros(1)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_columns(), st.integers(1, 9),
       st.sampled_from([0.05, 0.3, 1.0]), st.integers(1, 200))
def test_evaluator_bounds_and_counting_rows_are_exact(values, shards, weight,
                                                      capacity):
    """Cold per-node normalization on 1-9 shards: the bounds statistic's
    value is :func:`reduced_bounds` of the whole column, the normalized
    column is :func:`reduced_normalization` bit for bit, and every shard's
    counting row is its exact :func:`rank_counts` row -- ``count(<=)``
    included, however many rows tie at a bound and whether
    ``keep * shards`` is small or large against the column."""
    n = len(values)
    sharded = ShardedTable(Table("T", {"d": values}), shards)
    evaluator = ShardedPlanEvaluator(sharded, display_capacity=capacity)
    normalized, state, _ = evaluator._normalize_incremental(
        values, weight, None, NodeDelta("node", None, None))
    resolved = state.value
    assert resolved == reduced_bounds(
        values, normalization_keep_count(weight, capacity, n))
    expected = reduced_normalization(values, weight, capacity)
    np.testing.assert_array_equal(np.asarray(normalized).view(np.uint64),
                                  expected.view(np.uint64))
    np.testing.assert_array_equal(state.counts.rows, [
        rank_counts(values[a:b], resolved or ()) for a, b in sharded.bounds])


# --------------------------------------------------------------------------- #
# top-k candidate merge algebra
# --------------------------------------------------------------------------- #
def stable_reference_topk(distances: np.ndarray, target: int) -> np.ndarray:
    """The spec: target smallest by stable argsort (NaN last), sorted indices."""
    masked = np.where(np.isfinite(distances), distances, np.inf)
    if target >= len(distances):
        return np.arange(len(distances), dtype=np.intp)
    return np.sort(np.argsort(masked, kind="stable")[:target])


def merged_topk(distances: np.ndarray, cuts, target: int, order=None):
    partials = [topk_candidates(distances[a:b], target, offset=a) for a, b in cuts]
    if order is not None:
        partials = [partials[i] for i in order]
    return resolve_topk(reduce(merge_topk_candidates, partials))


@pytest.mark.parametrize("seed", range(15))
def test_topk_merge_matches_monolithic_and_stable_argsort(seed):
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.integers(1, 400))
    distances = random_column(rng, n, nan_fraction=float(rng.choice([0.0, 0.25, 1.0])),
                              tie_heavy=bool(seed % 2))
    percentage = float(rng.uniform(0.05, 1.0))
    target = max(1, int(round(percentage * n)))
    cuts = random_cuts(rng, n, int(rng.integers(1, 9)))
    merged = merged_topk(distances, cuts, target)
    monolithic = select_display_set(
        distances, capacity=10_000, n_selection_predicates=1,
        method=ReductionMethod.PERCENTAGE, percentage=percentage,
    )
    np.testing.assert_array_equal(merged, monolithic)
    np.testing.assert_array_equal(merged, stable_reference_topk(distances, target))


@pytest.mark.parametrize("seed", range(8))
def test_topk_merge_is_order_independent(seed):
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(2, 300))
    distances = random_column(rng, n, nan_fraction=0.1, tie_heavy=True)
    target = int(rng.integers(1, n + 1))
    cuts = random_cuts(rng, n, 5)
    reference = merged_topk(distances, cuts, target)
    for _ in range(4):
        order = rng.permutation(len(cuts))
        np.testing.assert_array_equal(
            merged_topk(distances, cuts, target, order=order), reference
        )


def test_topk_fold_shape_irrelevant():
    rng = np.random.default_rng(6)
    distances = random_column(rng, 200, tie_heavy=True)
    cuts = random_cuts(rng, 200, 4)
    a, b, c, d = (topk_candidates(distances[lo:hi], 25, offset=lo) for lo, hi in cuts)
    left = merge_topk_candidates(merge_topk_candidates(merge_topk_candidates(a, b), c), d)
    right = merge_topk_candidates(a, merge_topk_candidates(b, merge_topk_candidates(c, d)))
    pairs = merge_topk_candidates(merge_topk_candidates(a, b), merge_topk_candidates(c, d))
    np.testing.assert_array_equal(resolve_topk(left), resolve_topk(right))
    np.testing.assert_array_equal(resolve_topk(left), resolve_topk(pairs))


def test_topk_ties_at_capacity_boundary_break_by_row_index():
    """All-equal distances: the displayed set must be the first ``target`` rows.

    Every partial truncates a tie block here, so this is the boundary where
    the cut must follow the (value, row) order: a later shard's tie rows
    must never displace an earlier row with the same distance.
    """
    n, target = 40, 7
    distances = np.full(n, 3.25)
    cuts = [(0, 10), (10, 25), (25, 40)]
    merged = merged_topk(distances, cuts, target)
    np.testing.assert_array_equal(merged, np.arange(target, dtype=np.intp))
    # Reversed merge order must not change the winners.
    np.testing.assert_array_equal(
        merged_topk(distances, cuts, target, order=[2, 1, 0]), merged
    )


def test_topk_all_nan_column_selects_lowest_indices():
    distances = np.full(30, np.nan)
    cuts = [(0, 13), (13, 30)]
    merged = merged_topk(distances, cuts, 5)
    monolithic = select_display_set(
        distances, capacity=10_000, n_selection_predicates=1,
        method=ReductionMethod.PERCENTAGE, percentage=5 / 30,
    )
    np.testing.assert_array_equal(merged, monolithic)
    np.testing.assert_array_equal(merged, np.arange(5, dtype=np.intp))


def test_topk_empty_shards_are_identity():
    rng = np.random.default_rng(7)
    distances = random_column(rng, 60, tie_heavy=True)
    target = 9
    base = reduce(merge_topk_candidates,
                  [topk_candidates(distances[a:b], target, offset=a)
                   for a, b in [(0, 30), (30, 60)]])
    empty = topk_candidates(np.empty(0), target, offset=60)
    np.testing.assert_array_equal(
        resolve_topk(merge_topk_candidates(base, empty)), resolve_topk(base)
    )
    np.testing.assert_array_equal(
        resolve_topk(merge_topk_candidates(empty, base)), resolve_topk(base)
    )


TIE_HEAVY_VALUES = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0,
                                    np.nan, np.inf, -np.inf])


@st.composite
def topk_cases(draw):
    """A tie-heavy column, a target, random shard cuts and a merge tree.

    The tree is a list of (left, right) picks over a shrinking list of
    partials: each pick merges two of them into one, until one is left.
    """
    distances = np.asarray(draw(st.lists(TIE_HEAVY_VALUES, min_size=1,
                                         max_size=120)), dtype=float)
    n = len(distances)
    target = draw(st.integers(1, n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    edges = [0, *cuts, n]
    ranges = [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]
    picks = [(draw(st.integers(0, m - 1)), draw(st.integers(0, m - 2)))
             for m in range(len(ranges), 1, -1)]
    order = draw(st.permutations(range(len(ranges))))
    return distances, target, ranges, picks, order


@given(topk_cases())
@settings(max_examples=200)
def test_topk_bounded_merge_algebra(case):
    """Partials hold at most ``target`` rows, any merge tree resolves to the
    monolithic percentage selection, and pairwise merges equal one
    ``_many`` merge, row set and values alike."""
    distances, target, ranges, picks, order = case
    n = len(distances)
    partials = [topk_candidates(distances[a:b], target, offset=a) for a, b in ranges]
    assert all(len(p.indices) <= target for p in partials)
    pending = list(partials)
    for left, right in picks:
        a = pending.pop(left)
        merged = merge_topk_candidates(a, pending.pop(right))
        assert len(merged.indices) <= target
        pending.append(merged)
    (tree,) = pending
    many = merge_topk_candidates_many([partials[k] for k in order])
    assert len(many.indices) == min(target, n) and tree.count == many.count == n
    by_row = np.argsort(tree.indices)
    np.testing.assert_array_equal(tree.indices[by_row], np.sort(many.indices))
    np.testing.assert_array_equal(
        tree.values[by_row], many.values[np.argsort(many.indices)])
    monolithic = select_display_set(
        distances, capacity=10_000, n_selection_predicates=1,
        method=ReductionMethod.PERCENTAGE, percentage=target / n)
    np.testing.assert_array_equal(resolve_topk(tree), monolithic)
    np.testing.assert_array_equal(resolve_topk(many), monolithic)


def test_topk_target_mismatch_rejected():
    a = topk_candidates(np.arange(5.0), 2)
    b = topk_candidates(np.arange(5.0), 3)
    with pytest.raises(ValueError):
        merge_topk_candidates(a, b)
