"""Property tests for the sharded evaluator's global steps.

The sharded evaluator's bit-identity contract rests on two global steps:
one whole-column resolve of each node's ``(d_min, d_max)``
(:func:`~repro.core.normalization.reduced_bounds`) with exact per-shard
counting rows, and the percentage display's one threshold
(:func:`~repro.core.reduction.kth_smallest`) with a bounded cut per shard
(``PreparedQuery._percentage_displayed``).  These tests pin the
invariants any future backend must preserve:

* the elementwise transform applied shard by shard against the resolved
  bounds equals the monolithic normalization bit for bit, and every
  shard's counting row is exact, whatever ties, NaN or infinities it holds;
* a shard's cut holds at most ``target`` rows, however many rows tie at
  the threshold, and the shards' cuts merge to the same displayed set at
  any shard count, empty trailing shards included;
* the displayed set equals the monolithic computation bit for bit, cold
  and after a patch, including ties at the capacity boundary, where the
  stable-argsort tie rule (ascending global row index) must survive the
  per-shard cut.
"""

from __future__ import annotations

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
from repro import PipelineConfig, QueryEngine
from repro.core.reduction import (
    ReductionMethod,
    rank_counts,
    select_display_set,
)
from repro.core.shard import (
    NodeDelta,
    ShardedPlanEvaluator,
    ShardedTable,
    shard_bounds,
)
from repro.interact.events import SetQueryRange
from repro.query.builder import Query, between
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
# The percentage display: one threshold, a bounded cut per shard
# --------------------------------------------------------------------------- #
def stable_reference_topk(distances: np.ndarray, target: int) -> np.ndarray:
    """The spec: target smallest by stable argsort (NaN last), sorted indices."""
    masked = np.where(np.isfinite(distances), distances, np.inf)
    if target >= len(distances):
        return np.arange(len(distances), dtype=np.intp)
    return np.sort(np.argsort(masked, kind="stable")[:target])


def monolithic_percentage(distances: np.ndarray, percentage: float) -> np.ndarray:
    return select_display_set(
        distances, capacity=10_000, n_selection_predicates=1,
        method=ReductionMethod.PERCENTAGE, percentage=percentage)


def percentage_query(values, shards: int, percentage: float,
                     low: float = 0.0, high: float = 1.0):
    """A prepared ``x BETWEEN low AND high`` query over the column ``values``."""
    table = Table("T", {"x": np.asarray(values, dtype=float)})
    config = PipelineConfig(percentage=percentage, shard_count=shards,
                            max_workers=2, backend="threads")
    return QueryEngine(table, config).prepare(Query(
        name="percentage", tables=["T"], condition=between("x", low, high)))


def displayed_rows(prepared, changes=()) -> np.ndarray:
    """Execute, check the displayed row set against the stable-argsort
    spec over the root's normalized distances, and return it."""
    feedback = prepared.execute(changes=list(changes))
    distances = np.asarray(feedback.overall.normalized_distances)
    target = max(1, int(round(prepared.config.percentage * len(distances))))
    rows = np.sort(feedback.display_order)
    np.testing.assert_array_equal(rows, stable_reference_topk(distances, target))
    np.testing.assert_array_equal(
        rows, monolithic_percentage(distances, prepared.config.percentage))
    return rows


@pytest.mark.parametrize("seed", range(15))
def test_topk_merge_matches_monolithic_and_stable_argsort(seed):
    """``select_display_set`` is the stable-argsort spec, and the engine's
    per-shard cuts, merged, select the same set on 1-8 shards."""
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.integers(1, 400))
    distances = random_column(rng, n, nan_fraction=float(rng.choice([0.0, 0.25, 1.0])),
                              tie_heavy=bool(seed % 2))
    percentage = float(rng.uniform(0.05, 1.0))
    target = max(1, int(round(percentage * n)))
    np.testing.assert_array_equal(monolithic_percentage(distances, percentage),
                                  stable_reference_topk(distances, target))
    displayed_rows(percentage_query(distances, int(rng.integers(1, 9)),
                                    percentage, 20.0, 60.0))


@pytest.mark.parametrize("seed", range(8))
def test_topk_merge_is_order_independent(seed):
    """However the rows are cut into shards, the cuts merge to one set."""
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(2, 300))
    values = random_column(rng, n, nan_fraction=0.1, tie_heavy=True)
    percentage = int(rng.integers(1, n + 1)) / n
    reference = displayed_rows(percentage_query(values, 1, percentage, 20.0, 60.0))
    for shards in rng.integers(2, 40, size=4):
        np.testing.assert_array_equal(displayed_rows(percentage_query(
            values, int(shards), percentage, 20.0, 60.0)), reference)


def test_topk_ties_at_capacity_boundary_break_by_row_index():
    """All-equal distances: the displayed set must be the first ``target`` rows.

    Every shard's cut truncates a tie block here, so this is the boundary
    where the cut must follow the (value, row) order: a later shard's tie
    rows must never displace an earlier row with the same distance.
    """
    for shards in (1, 3, 7, 40):
        rows = displayed_rows(percentage_query(np.full(40, 3.25), shards, 7 / 40))
        np.testing.assert_array_equal(rows, np.arange(7, dtype=np.intp))


def test_topk_all_nan_column_selects_lowest_indices():
    distances = np.full(30, np.nan)
    np.testing.assert_array_equal(monolithic_percentage(distances, 5 / 30),
                                  np.arange(5, dtype=np.intp))
    rows = displayed_rows(percentage_query(distances, 2, 5 / 30))
    np.testing.assert_array_equal(rows, np.arange(5, dtype=np.intp))


def test_topk_empty_shards_are_identity():
    """Shards past the last row add nothing to the displayed set."""
    rng = np.random.default_rng(7)
    values = random_column(rng, 60, tie_heavy=True)
    base = displayed_rows(percentage_query(values, 2, 9 / 60, 20.0, 60.0))
    for shards in (61, 64, 100):
        np.testing.assert_array_equal(displayed_rows(percentage_query(
            values, shards, 9 / 60, 20.0, 60.0)), base)


TIE_HEAVY_VALUES = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0,
                                    np.nan, np.inf, -np.inf])


@st.composite
def topk_cases(draw):
    """A tie-heavy column, a shard count (more shards than rows included)
    and a display percentage."""
    values = np.asarray(draw(st.lists(TIE_HEAVY_VALUES, min_size=1,
                                      max_size=120)), dtype=float)
    n = len(values)
    shards = draw(st.integers(1, n + 8))
    percentage = draw(st.integers(1, n)) / n
    return values, shards, percentage


@given(topk_cases())
@settings(max_examples=200, deadline=None)
def test_topk_bounded_merge_algebra(case):
    """The engine's percentage display on tie-heavy columns, cold and after
    a range micro-move (the patch path): the displayed rows are the
    stable-argsort spec's, and every shard's cut holds at most ``target``
    rows however many of its rows tie at the threshold."""
    values, shards, percentage = case
    prepared = percentage_query(values, shards, percentage)
    target = max(1, int(round(percentage * len(values))))
    for changes in ([], [SetQueryRange((), 0.0, 1.25)]):
        displayed_rows(prepared, changes)
        assert all(len(below) + len(ties) <= target
                   for below, ties in prepared._root.displayed.pieces)
