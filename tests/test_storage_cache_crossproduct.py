"""Unit tests for the prefetch cache, the evaluator's fulfilment masks
and cross products."""

import numpy as np
import pytest

from repro import PipelineConfig, QueryEngine
from repro.interact.events import SetQueryRange
from repro.query.builder import Query, between
from repro.query.expr import AndNode, OrNode
from repro.storage.cache import CachedRegion, PrefetchCache
from repro.storage.cross_product import CrossProduct, sampled_pair_indices
from repro.storage.table import Table


@pytest.fixture()
def table() -> Table:
    rng = np.random.default_rng(11)
    return Table("T", {"a": rng.uniform(0, 100, 1000), "b": rng.uniform(0, 10, 1000)})


def brute(table, ranges):
    keep = np.ones(len(table), dtype=bool)
    for column, (low, high) in ranges.items():
        values = table.column(column)
        if low is not None:
            keep &= values >= low
        if high is not None:
            keep &= values <= high
    return np.nonzero(keep)[0]


# -- PrefetchCache ------------------------------------------------------ #
def test_cache_results_are_exact(table):
    cache = PrefetchCache(table)
    ranges = {"a": (20.0, 40.0)}
    np.testing.assert_array_equal(cache.query(ranges), brute(table, ranges))


def test_cache_hit_on_narrower_query(table):
    cache = PrefetchCache(table, margin=0.25)
    cache.query({"a": (20.0, 40.0)})
    assert cache.fetches == 1
    result = cache.query({"a": (25.0, 35.0)})
    assert cache.cache_hits == 1
    np.testing.assert_array_equal(result, brute(table, {"a": (25.0, 35.0)}))


def test_cache_slightly_wider_query_still_hits_within_margin(table):
    cache = PrefetchCache(table, margin=0.5)
    cache.query({"a": (20.0, 40.0)})
    # Widened region is [10, 50]: a query [18, 44] is inside it.
    cache.query({"a": (18.0, 44.0)})
    assert cache.cache_hits == 1


def test_cache_miss_on_much_wider_query(table):
    cache = PrefetchCache(table, margin=0.1)
    cache.query({"a": (20.0, 40.0)})
    cache.query({"a": (0.0, 90.0)})
    assert cache.fetches == 2


def test_cache_unconstrained_attribute_means_not_covered(table):
    cache = PrefetchCache(table)
    cache.query({"a": (20.0, 40.0)})
    cache.query({})  # broader than the cached region
    assert cache.fetches == 2


def test_cache_eviction(table):
    cache = PrefetchCache(table, max_regions=2)
    cache.query({"a": (0.0, 10.0)})
    cache.query({"a": (20.0, 30.0)})
    cache.query({"a": (40.0, 50.0)})
    assert cache.region_count == 2


def test_cache_hit_rate_and_clear(table):
    cache = PrefetchCache(table)
    cache.query({"a": (20.0, 40.0)})
    cache.query({"a": (22.0, 38.0)})
    assert cache.hit_rate() == pytest.approx(0.5)
    cache.clear()
    assert cache.region_count == 0
    assert cache.hit_rate() == 0.0


def test_cached_region_covers_logic():
    region = CachedRegion(ranges={"a": (0.0, 10.0)}, row_indices=np.array([1, 2]))
    assert region.covers({"a": (1.0, 9.0)})
    assert not region.covers({"a": (None, 9.0)})
    assert not region.covers({"a": (1.0, 11.0)})
    assert not region.covers({})


# -- PrefetchCache edge cases (ROADMAP: untested paths) ------------------ #
def test_or_shaped_region_falls_back_to_separate_full_scans(table):
    """A union of boxes is not representable as one cached region.

    The cache stores conjunctive boxes only, so the two arms of an
    OR-shaped request must be fetched (scanned) separately -- neither arm's
    cached region covers the other, and each arm stays exact.
    """
    cache = PrefetchCache(table, margin=0.1)
    left_arm = {"a": (10.0, 20.0)}
    right_arm = {"a": (60.0, 70.0)}
    rows_left = cache.query(left_arm)
    rows_right = cache.query(right_arm)
    assert cache.fetches == 2 and cache.cache_hits == 0
    np.testing.assert_array_equal(rows_left, brute(table, left_arm))
    np.testing.assert_array_equal(rows_right, brute(table, right_arm))
    # The union is answerable only by the caller merging the arms.
    union = np.union1d(rows_left, rows_right)
    expected = np.union1d(brute(table, left_arm), brute(table, right_arm))
    np.testing.assert_array_equal(union, expected)
    # Each arm individually now hits its own region.
    cache.query({"a": (12.0, 18.0)})
    cache.query({"a": (62.0, 68.0)})
    assert cache.fetches == 2 and cache.cache_hits == 2


def test_eviction_keeps_hit_regions_under_pressure(table):
    """Hit-count-aware eviction: the hot region survives one-shot queries."""
    cache = PrefetchCache(table, margin=0.25, max_regions=2)
    cache.query({"a": (20.0, 40.0)})   # hot region
    cache.query({"a": (25.0, 35.0)})   # hit on it
    assert cache.cache_hits == 1
    cache.query({"b": (1.0, 2.0)})     # fills the cache (no hits yet)
    cache.query({"b": (5.0, 6.0)})     # pressure: evicts the unhit b-region
    assert cache.region_count == 2
    result = cache.query({"a": (26.0, 34.0)})
    assert cache.fetches == 3  # still served from the surviving hot region
    np.testing.assert_array_equal(result, brute(table, {"a": (26.0, 34.0)}))


def test_eviction_ties_drop_oldest_region(table):
    """With no hits anywhere the policy degrades to FIFO (oldest first)."""
    cache = PrefetchCache(table, margin=0.1, max_regions=2)
    cache.query({"a": (0.0, 10.0)})
    cache.query({"a": (30.0, 40.0)})
    cache.query({"a": (60.0, 70.0)})  # evicts the oldest zero-hit region
    assert cache.region_count == 2
    # The newer two answer from cache ...
    cache.query({"a": (32.0, 38.0)})
    cache.query({"a": (62.0, 68.0)})
    assert cache.cache_hits == 2 and cache.fetches == 3
    # ... while re-querying the evicted oldest must fetch again.
    cache.query({"a": (2.0, 8.0)})
    assert cache.fetches == 4


def test_eviction_admits_new_region_when_all_residents_have_hits(table):
    """A fresh fetch must never evict itself just because residents are hot.

    Regression guard: with every resident region hit at least once, the
    zero-hit newcomer must still be admitted (evicting the least-hit
    resident), otherwise a drag into a new value band would re-scan the
    table on every single step.
    """
    cache = PrefetchCache(table, margin=0.25, max_regions=2)
    cache.query({"a": (20.0, 40.0)})
    cache.query({"a": (25.0, 35.0)})   # hit resident 1
    cache.query({"b": (1.0, 3.0)})
    cache.query({"b": (1.5, 2.5)})     # hit resident 2
    assert cache.cache_hits == 2
    cache.query({"a": (60.0, 70.0)})   # new band: must be admitted
    fetches = cache.fetches
    result = cache.query({"a": (62.0, 68.0)})  # narrowing drag inside it
    assert cache.fetches == fetches, "new region was evicted on arrival"
    assert cache.cache_hits == 3
    np.testing.assert_array_equal(result, brute(table, {"a": (62.0, 68.0)}))


# -- Fulfilment masks in the evaluator --------------------------------- #
# The evaluator computes a range leaf's mask elementwise and an OR's mask
# as the OR of its children's masks; a drag patches them over the rows the
# per-shard index finds changed.  Every mask must equal the brute force.
def brute_mask(table, *boxes):
    keep = np.zeros(len(table), dtype=bool)
    for box in boxes:
        keep[brute(table, box)] = True
    return keep


def prepare(table, root, shards=1):
    engine = QueryEngine(table, PipelineConfig(shard_count=shards, max_workers=2))
    return engine.prepare(Query(name="q", tables=[table.name], condition=root))


def root_mask(prepared, changes=()):
    return prepared.execute(changes=changes).node_feedback[()].exact_mask


def test_union_query_is_exact(table):
    root = OrNode([between("a", 10.0, 20.0),
                   AndNode([between("a", 60.0, 70.0), between("b", 2.0, 8.0)])])
    for shards in (1, 4):
        np.testing.assert_array_equal(
            root_mask(prepare(table, root, shards)),
            brute_mask(table, {"a": (10.0, 20.0)},
                       {"a": (60.0, 70.0), "b": (2.0, 8.0)}))


def test_union_narrowing_drag_hits_cached_region(table):
    """Narrowing one arm of an OR patches from the arm's site entry."""
    prepared = prepare(table, OrNode([between("a", 10.0, 30.0),
                                      between("a", 60.0, 80.0)]))
    prepared.execute()
    for low in (11.0, 12.0, 13.0):
        hits = prepared.cache_stats["slice_hits"]
        np.testing.assert_array_equal(
            root_mask(prepared, [SetQueryRange((0,), low, 30.0)]),
            brute_mask(table, {"a": (low, 30.0)}, {"a": (60.0, 80.0)}))
        assert prepared.cache_stats["slice_hits"] > hits
    assert prepared.cache_stats["chunks_patched"] > 0


def test_union_mask_matches_query(table):
    """The evaluator's OR mask selects the rows the prefetch cache returns
    for the OR's arms."""
    cache = PrefetchCache(table)
    mask = root_mask(prepare(table, OrNode([between("a", 10.0, 20.0),
                                            between("b", 0.0, 1.0)])))
    rows = np.union1d(cache.query({"a": (10.0, 20.0)}),
                      cache.query({"b": (0.0, 1.0)}))
    np.testing.assert_array_equal(np.nonzero(mask)[0], rows)


def test_union_single_disjunct_degenerates_to_box(table):
    np.testing.assert_array_equal(
        root_mask(prepare(table, OrNode([between("a", 10.0, 20.0)]))),
        brute_mask(table, {"a": (10.0, 20.0)}))


def test_fulfilment_mask_matches_brute_force(table):
    for shards in (1, 4):
        prepared = prepare(table, AndNode([between("a", 20.0, 40.0),
                                           between("b", 2.0, 8.0)]), shards)
        np.testing.assert_array_equal(
            root_mask(prepared),
            brute_mask(table, {"a": (20.0, 40.0), "b": (2.0, 8.0)}))
        # Narrower query: computed against the previous state, still exact.
        narrower = [SetQueryRange((0,), 25.0, 35.0), SetQueryRange((1,), 3.0, 7.0)]
        np.testing.assert_array_equal(
            root_mask(prepared, narrower),
            brute_mask(table, {"a": (25.0, 35.0), "b": (3.0, 7.0)}))
        assert prepared.cache_stats["slice_hits"] > 0


def test_fulfilment_mask_correct_after_clear(table):
    """EvaluationCache.clear() makes the next event cold without
    corrupting answers."""
    prepared = prepare(table, between("a", 20.0, 40.0))
    before = root_mask(prepared)
    root_mask(prepared, [SetQueryRange((), 25.0, 35.0)])
    cache = prepared.engine.evaluation_cache(prepared.table)
    cache.clear()
    misses = cache.stats.leaf_misses
    after = root_mask(prepared, [SetQueryRange((), 20.0, 40.0)])
    assert cache.stats.leaf_misses == misses + 1
    np.testing.assert_array_equal(after, before)
    np.testing.assert_array_equal(after, brute_mask(table, {"a": (20.0, 40.0)}))


def test_fulfilment_mask_indexed_one_sided_bounds_with_nan():
    """One-sided index slices must not corrupt a patched mask with NaN rows.

    A drag finds the rows it changes through one-sided slices of the
    per-shard sorted index, and NaN values sort to the end of it, so the
    slice above a moved upper bound sweeps the NaN rows in.  They must
    stay outside the mask (NaN rows never fulfil) at every shard count.
    """
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 10.0, 400)
    values[rng.random(400) < 0.2] = np.nan
    nan_table = Table("N", {"a": values})
    for shards in (1, 3):
        prepared = prepare(nan_table, between("a", 2.0, 9.6), shards)
        prepared.execute()
        for low, high in ((2.0, 9.7), (2.5, 9.7), (2.5, 9.8), (2.4, 9.5)):
            np.testing.assert_array_equal(
                root_mask(prepared, [SetQueryRange((), low, high)]),
                (values >= low) & (values <= high))
        assert prepared.cache_stats["chunks_patched"] > 0


# -- Cross products ----------------------------------------------------- #
def test_pair_indices_full_enumeration():
    left, right = sampled_pair_indices(3, 2, max_pairs=None)
    assert len(left) == 6
    assert set(zip(left.tolist(), right.tolist())) == {(i, j) for i in range(3) for j in range(2)}


def test_pair_indices_sampling_is_deterministic():
    a = sampled_pair_indices(100, 100, max_pairs=50, seed=4)
    b = sampled_pair_indices(100, 100, max_pairs=50, seed=4)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert len(a[0]) == 50


def test_pair_indices_empty():
    left, right = sampled_pair_indices(0, 10, max_pairs=None)
    assert len(left) == 0 and len(right) == 0


def test_pair_indices_negative_rejected():
    with pytest.raises(ValueError):
        sampled_pair_indices(-1, 2, None)


def test_cross_product_to_table_prefixes():
    left = Table("L", {"x": [1.0, 2.0]})
    right = Table("R", {"y": [10.0, 20.0, 30.0]})
    product = CrossProduct(left, right, max_pairs=None)
    table = product.to_table()
    assert len(table) == 6
    assert set(table.column_names) == {"L.x", "R.y"}
    assert not product.is_sampled


def test_cross_product_same_name_disambiguation():
    left = Table("T", {"x": [1.0]})
    right = Table("T", {"x": [2.0]})
    table = CrossProduct(left, right, max_pairs=None).to_table()
    assert set(table.column_names) == {"T#1.x", "T#2.x"}


def test_cross_product_sampling_cap():
    left = Table("L", {"x": np.arange(100.0)})
    right = Table("R", {"y": np.arange(100.0)})
    product = CrossProduct(left, right, max_pairs=500, seed=1)
    assert len(product) == 500
    assert product.total_pairs == 10_000
    assert product.is_sampled


def test_cross_product_iter_pairs_chunks():
    left = Table("L", {"x": np.arange(10.0)})
    right = Table("R", {"y": np.arange(10.0)})
    product = CrossProduct(left, right, max_pairs=None)
    chunks = list(product.iter_pairs(chunk_size=30))
    assert sum(len(c[0]) for c in chunks) == 100
    with pytest.raises(ValueError):
        list(product.iter_pairs(chunk_size=0))


def test_cross_product_column_alignment():
    left = Table("L", {"x": [1.0, 2.0]})
    right = Table("R", {"y": [10.0, 20.0]})
    product = CrossProduct(left, right, max_pairs=None)
    np.testing.assert_array_equal(product.column_left("x"), [1.0, 1.0, 2.0, 2.0])
    np.testing.assert_array_equal(product.column_right("y"), [10.0, 20.0, 10.0, 20.0])
