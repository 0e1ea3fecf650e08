"""Core relevance engine: the paper's primary contribution.

Pipeline (paper sections 3 and 5):

1. For every selection predicate, compute application-dependent distances
   (:mod:`repro.distance`, via the predicates of :mod:`repro.query`).
2. Reduce the data considered per predicate (proportional to ``r/(n·w_j)``)
   and normalize the remaining distances to a fixed range
   (:mod:`repro.core.normalization`).
3. Combine the normalized distances bottom-up over the query tree: weighted
   arithmetic mean for ``AND``, weighted geometric mean for ``OR``
   (:mod:`repro.core.combine`), re-normalizing between levels.
4. Turn the final combined distance into relevance factors and choose the
   subset of data items to display using the α-quantile or multi-peak
   heuristics (:mod:`repro.core.reduction`, :mod:`repro.core.relevance`).
5. Package everything into a :class:`~repro.core.result.QueryFeedback` that
   the visualization layer arranges into pixel windows.

:class:`~repro.core.engine.QueryEngine` is the public entry point for
interactive feedback loops (prepare once, re-execute incrementally);
:class:`~repro.core.pipeline.VisualFeedbackQuery` remains as the one-shot
facade over it.
"""

from repro.core.normalization import (
    NORMALIZED_MAX,
    minmax_normalize,
    reduced_normalization,
    normalize_signed,
)
from repro.core.weights import WeightSet
from repro.core.combine import CombinationRule
from repro.core.reduction import (
    display_fraction,
    quantile_threshold,
    select_by_quantile,
    signed_quantile_window,
    multipeak_cut,
    ReductionMethod,
)
from repro.core.relevance import relevance_factors, RelevanceScale
from repro.core.result import FeedbackStatistics, NodeFeedback, QueryFeedback
from repro.core.plan import CacheStats, EvaluationCache, compile_plan
from repro.core.shard import (
    ShardedPlanEvaluator,
    ShardedTable,
    shard_bounds,
)
from repro.core.engine import QueryEngine, PreparedQuery, ScreenSpec, PipelineConfig
from repro.core.pipeline import VisualFeedbackQuery

__all__ = [
    "NORMALIZED_MAX",
    "minmax_normalize",
    "reduced_normalization",
    "normalize_signed",
    "WeightSet",
    "CombinationRule",
    "display_fraction",
    "quantile_threshold",
    "select_by_quantile",
    "signed_quantile_window",
    "multipeak_cut",
    "ReductionMethod",
    "relevance_factors",
    "RelevanceScale",
    "NodeFeedback",
    "QueryFeedback",
    "FeedbackStatistics",
    "CacheStats",
    "EvaluationCache",
    "compile_plan",
    "ShardedPlanEvaluator",
    "ShardedTable",
    "shard_bounds",
    "QueryEngine",
    "PreparedQuery",
    "VisualFeedbackQuery",
    "ScreenSpec",
    "PipelineConfig",
]
