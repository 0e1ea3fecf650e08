"""Ablations of the design choices called out in DESIGN.md.

* AND/OR combination: the paper's weighted arithmetic/geometric means vs.
  min/max alternatives (fulfilment semantics must survive).
* Normalization: the paper's reduced normalization vs. plain min-max under a
  single extreme outlier (colour-range usage collapses without it).
* Arrangement: spiral vs. row-major placement (the spiral keeps the most
  relevant items compactly around the centre).
* Colormap: VisDB colour path vs. grey scale (number of JNDs).
* Incremental prefetch cache (the conclusions' optimisation) vs. re-scanning.
"""

import numpy as np
import pytest

from repro import VisualFeedbackQuery
from repro.analysis import color_usage
from repro.core.combine import CombinationRule, combine_columns
from repro.core.normalization import minmax_normalize, reduced_normalization
from repro.datasets.random_data import uniform_table
from repro.storage.cache import PrefetchCache
from repro.vis.arrangement import spiral_arrangement
from repro.vis.colormap import GrayscaleColormap, VisDBColormap, jnd_count
from repro.vis.spiral import rect_spiral_coords


# -- combination rules ---------------------------------------------------------- #
def test_ablation_combination_rules(benchmark, rng):
    """Weighted means vs. min/max: the paper's rules keep graded information."""
    matrix = rng.uniform(0.0, 255.0, (50_000, 3))
    matrix[:100, 0] = 0.0
    weights = np.array([1.0, 0.8, 0.5])
    columns = list(matrix.T)

    def all_rules():
        return {
            "and_mean": combine_columns(CombinationRule.AND, columns, weights),
            "or_geometric": combine_columns(CombinationRule.OR, columns, weights),
            "and_max": matrix.max(axis=1),
            "or_min": matrix.min(axis=1),
        }

    results = benchmark(all_rules)
    # min/max collapse the gradation: far fewer distinct values than the means.
    assert len(np.unique(np.round(results["and_mean"], 6))) > len(
        np.unique(np.round(results["and_max"], 6))
    ) * 0.5
    # The geometric mean and the min agree on which items are perfect OR answers.
    np.testing.assert_array_equal(results["or_geometric"] == 0.0, results["or_min"] == 0.0)


# -- normalization ----------------------------------------------------------------- #
def test_ablation_normalization_outlier(benchmark):
    """Plain min-max vs. reduced normalization under one extreme outlier."""
    distances = np.concatenate([np.linspace(0.0, 20.0, 20_000), [1e7]])

    def both():
        return minmax_normalize(distances), reduced_normalization(distances, 1.0, 5_000)

    plain, robust = benchmark(both)
    # Plain normalization uses almost none of the colour range for the real data.
    plain_levels = len(np.unique((plain[:-1] / 4).astype(int)))
    robust_levels = len(np.unique((robust[:-1] / 4).astype(int)))
    assert plain_levels <= 2
    assert robust_levels >= 32
    benchmark.extra_info["plain_levels"] = int(plain_levels)
    benchmark.extra_info["robust_levels"] = int(robust_levels)


def test_ablation_color_usage_end_to_end(benchmark):
    """End-to-end: an attribute contaminated with one extreme outlier (far below the
    query threshold) still spreads its displayed distances over the colour scale."""
    table = uniform_table(20_000, {"a": (0.0, 100.0)}, seed=2)
    contaminated = table.with_column("a", np.concatenate([table.column("a")[:-1], [-1e9]]))
    pipeline = VisualFeedbackQuery(contaminated, "a > 99", percentage=0.2)

    feedback = benchmark(pipeline.execute)

    assert color_usage(feedback, ()) > 0.3


# -- arrangement ---------------------------------------------------------------------- #
def test_ablation_spiral_vs_rowmajor(benchmark, rng):
    """Spiral placement keeps relevant items near the centre; row-major does not."""
    n = 10_000
    distances = np.sort(rng.uniform(0.0, 255.0, n))
    item_ids = np.arange(n)
    side = 100

    def spiral():
        return spiral_arrangement(distances, item_ids, side, side)

    window = benchmark(spiral)
    centre = np.array([(side - 1) // 2, (side - 1) // 2])
    coords = rect_spiral_coords(side, side)[:n]
    spiral_mean_radius = np.mean(np.linalg.norm(coords[:1000] - centre, axis=1))
    # Row-major places the first 1000 items in the top rows, far from the centre.
    rowmajor_coords = np.stack([np.arange(1000) % side, np.arange(1000) // side], axis=1)
    rowmajor_mean_radius = np.mean(np.linalg.norm(rowmajor_coords - centre, axis=1))
    assert spiral_mean_radius < 0.5 * rowmajor_mean_radius
    assert window.item_count() == n


# -- colormap --------------------------------------------------------------------------- #
def test_ablation_colormap_jnds(benchmark):
    """The VisDB colour path provides several times more JNDs than grey scale."""
    visdb, grey = benchmark(lambda: (jnd_count(VisDBColormap()), jnd_count(GrayscaleColormap())))
    assert visdb > 2.0 * grey
    benchmark.extra_info["jnd_visdb"] = round(visdb, 1)
    benchmark.extra_info["jnd_gray"] = round(grey, 1)


# -- incremental prefetch cache ------------------------------------------------------------ #
def test_ablation_prefetch_cache(benchmark):
    """The conclusions' optimisation: slightly modified queries reuse prefetched data."""
    table = uniform_table(200_000, {"a": (0.0, 100.0), "b": (0.0, 100.0)}, seed=5)

    def interactive_sequence(use_cache: bool):
        cache = PrefetchCache(table, margin=0.3 if use_cache else 0.0)
        for low in (40.0, 41.0, 42.0, 43.0, 44.0):
            cache.query({"a": (low, low + 10.0), "b": (20.0, 60.0)})
        return cache

    cached = benchmark(interactive_sequence, True)
    uncached = interactive_sequence(False)
    assert cached.cache_hits >= 3
    assert uncached.cache_hits == 0
    benchmark.extra_info["hit_rate"] = round(cached.hit_rate(), 2)
