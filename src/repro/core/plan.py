"""Execution plans: compiled query trees, their result cache and the reference.

:func:`compile_plan` turns a condition tree into a tree of plan nodes, each
carrying a stable fingerprint of the computation it performs.  The paper's
conclusions ask for exactly this seam: "retrieve more data than necessary in
the beginning and retrieve only the additional portion of the data that is
needed for a slightly modified query later on" -- between two executions of
an interactively modified query most of the tree is unchanged, so most
per-node results can be reused byte-for-byte.

:class:`EvaluationCache` holds what is reused, at the levels matching what
each modification invalidates (each level a bounded
:class:`~repro.storage.lru.LRUStore`, the package's one cache store):

* **raw leaf columns** (signed distances, absolute distances, exact masks)
  are keyed by the predicate fingerprint alone.  Weight, percentage and
  display-capacity changes reuse them untouched; only an actual predicate
  change (a slider move) recomputes the one affected leaf.
* **normalized node columns** are keyed by the node's value fingerprint
  (raw identity + weights + normalization parameters).  A weight change
  re-normalizes the affected path; everything off the path is a cache hit.
* **per-site slice entries** (:class:`ShardSliceEntry`) are the one level
  not held here: each prepared query keeps its own, one per plan node,
  pointing at the node columns it last produced or was served, so an
  event recomputes only the shards it dirtied and the entries die with
  the query.

Production evaluates plans through this cache with
:class:`~repro.core.shard.ShardedPlanEvaluator`, for every shard count
(one shard included).  :func:`reference_feedback` at the bottom of this
module is *not* that path: it is the deliberately naive, cache-free
whole-table computation the test suites hold every production frame
against, bit for bit.  It walks the query tree itself -- the combination
rule read off the node type, ``NOT`` rewritten through
:meth:`~repro.query.expr.NotNode.simplify` -- and never calls
:func:`compile_plan`, so a compiler bug cannot hide behind a plan both
sides share.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.core.chunks import ChunkedColumn
from repro.core.combine import CombinationRule, combine_columns, combine_masks
from repro.core.normalization import reduced_normalization
from repro.core.reduction import ReductionMethod, select_display_set
from repro.core.result import FeedbackStatistics, NodeFeedback, QueryFeedback
from repro.query.expr import (
    AndNode,
    NodePath,
    NotNode,
    OrNode,
    PredicateLeaf,
    QueryNode,
    SubqueryNode,
)
from repro.query.fingerprint import stable_fingerprint
from repro.storage.lru import LRUStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.shard import ShardStatistic

__all__ = [
    "LeafPlan",
    "CompositePlan",
    "PlanNode",
    "compile_plan",
    "CacheStats",
    "EvaluationCache",
    "reference_feedback",
    "ShardSliceEntry",
]


# --------------------------------------------------------------------------- #
# Cached values
# --------------------------------------------------------------------------- #
def _freeze(*arrays: np.ndarray | None) -> None:
    """Mark cached arrays read-only.

    The cache hands the same ndarray objects to every execution (inside
    :class:`NodeFeedback`), so an in-place mutation by a consumer would
    silently corrupt all later results; freezing turns that into an error.

    :class:`ChunkedColumn` values are skipped by type: their chunks are
    already individually read-only, and touching ``.flags`` on one would
    silently materialize the whole column on the hot path.
    """
    for array in arrays:
        if array is None or isinstance(array, ChunkedColumn):
            continue
        if array.flags.writeable:
            array.flags.writeable = False


#: Cached columns are plain frozen ndarrays on cold paths and chunked
#: copy-on-write columns once the incremental patch paths have touched them.
Column = Union[np.ndarray, ChunkedColumn]


@dataclass
class _LeafRaw:
    """Normalization-independent arrays of one leaf (shared across executes)."""

    signed: Column
    raw: Column
    exact_mask: Column
    supports_direction: bool

    def __post_init__(self) -> None:
        _freeze(self.signed, self.raw, self.exact_mask)


@dataclass
class _NodeColumns:
    """Per-node arrays for one (weights, capacity) configuration.

    ``normalization`` is the statistic of ``raw`` the normalization read:
    its value is the bounds ``(d_min, d_max)`` (None when nothing
    resolved), and it holds one :func:`~repro.core.reduction.rank_counts`
    row per shard against them, ``(finite_count, count < d_min,
    count <= d_min, count < d_max, count <= d_max)``.  It is a function of
    the value (for one shard partitioning), so it is shared under the
    value key with the arrays, and the next event certifies the bounds
    from it in O(dirty shards + shard_count)
    (:func:`~repro.core.shard.refresh_statistic`).
    """

    normalized: Column
    signed: Column | None
    exact_mask: Column
    raw: Column
    normalization: ShardStatistic

    def __post_init__(self) -> None:
        _freeze(self.normalized, self.signed, self.exact_mask, self.raw,
                self.normalization.counts.rows)


@dataclass(frozen=True)
class ShardSliceEntry:
    """Incremental per-shard state of one plan-node *site*.

    A site is a structural position in one prepared query's plan (leaf or
    composite), identified independently of the mutable parameters (bounds,
    weights).  The entry points at the node columns the previous execution
    produced or was served from the node cache (shared with the node LRU,
    so no extra column memory while both hold them) under their value
    fingerprint -- which, with the columns' per-shard normalization
    statistic, is exactly what a later execution needs to recompute only
    the shards an event actually dirtied.

    Patch provenance is **per prepared query**: the entries live on the
    prepared query (its per-root state), so the entry is that query's own
    previous state, no other session can move it, and it is dropped with
    the query.  A leaf entry names the raw column it
    derives from (``raw_key``); a range leaf's entry also records the
    ``(attribute, low, high)`` its raw columns were built for, which makes
    the rows an event changes -- and so the dirty shards -- a pure function
    of those bounds, the new bounds and the per-shard sorted indexes,
    whoever computed the new raw column.  A composite entry names its child
    value keys, weights and rule.  Entries are validated against this
    provenance before any patch, so a stale entry can only cause a full
    recompute, never a wrong patch.  Nothing stands in for a missing
    entry: that site takes the cold path (and, for a range leaf, is what
    makes the plan eligible for whole-pipeline offload).
    """

    value_key: str
    columns: _NodeColumns
    #: Leaf provenance: identity of the raw column the entry derives from.
    raw_key: str | None = None
    #: Range-leaf provenance: ``(attribute, low, high)`` of the range
    #: predicate ``columns``' raw arrays were computed for.
    range_bounds: tuple[str, float, float] | None = None
    #: Composite provenance: child value keys / weights / rule at build time.
    child_keys: tuple[str, ...] | None = None
    child_weights: tuple[float, ...] | None = None
    rule: object | None = None
    #: :attr:`EvaluationCache.generation` the writing evaluation started
    #: under; an entry of an older generation is no entry.
    generation: int = 0


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`EvaluationCache` (for tests/benchmarks)."""

    leaf_hits: int = 0
    leaf_misses: int = 0
    node_hits: int = 0
    node_misses: int = 0
    leaf_evictions: int = 0
    node_evictions: int = 0
    # Every field from here on counts incremental work; the service's
    # metrics report breaks them out under ``incremental``.
    #: Plan evaluations (every one tracks dirty shards).
    incremental_events: int = 0
    #: Sharded dirty-tracking: node recomputations that patched a previous
    #: column (slice_hits) vs. falling back to a full per-shard recompute.
    slice_hits: int = 0
    slice_misses: int = 0
    #: Per-shard work attribution across all patched/full node stages:
    #: shards whose slice had to be recomputed vs. reused verbatim.
    shards_recomputed: int = 0
    shards_reused: int = 0
    #: Patched nodes whose merged (d_min, d_max) came out unchanged, so the
    #: clean shards' normalized slices were reused without renormalizing.
    bounds_shortcircuits: int = 0
    #: Percentage displayed sets served from their cached per-shard
    #: below/tie lists (reused, or patched under the certificate).
    displayed_patches: int = 0
    #: Result counts served from per-shard mask popcounts (dirty shards
    #: recounted, clean shards' cached counts reused) instead of a full
    #: O(n) popcount of the root fulfilment mask.
    result_count_patches: int = 0
    #: Chunked copy-on-write accounting across all column patches: chunks
    #: that had to be copied (a dirty row/span intersected them) vs. chunks
    #: aliased verbatim from the previous column.
    chunks_patched: int = 0
    chunks_shared: int = 0
    #: Quantile-reduction displayed sets served by the per-shard
    #: order-statistic certificate vs. falling back to the exact O(n)
    #: concatenate-and-quantile path.
    quantile_certified: int = 0
    quantile_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class EvaluationCache:
    """Two-level result cache for one evaluation table.

    Parameters
    ----------
    max_leaf_entries / max_node_entries:
        LRU entry bounds.  Each entry holds O(n) float arrays, so the total
        footprint scales with the table size times the entry count;
        :meth:`QueryEngine.evaluation_cache` derives the counts from a byte
        budget for the table at hand rather than using the defaults.
    """

    def __init__(self, max_leaf_entries: int = 64, max_node_entries: int = 128):
        self._raw: LRUStore[_LeafRaw] = LRUStore(max_leaf_entries)
        self._nodes: LRUStore[_NodeColumns] = LRUStore(max_node_entries)
        #: Bumped by :meth:`clear`.  Evaluations stamp the site entries they
        #: write with the generation they started under and accept only
        #: entries of the current one, so after a clear every site is cold
        #: -- including entries an evaluation in flight writes afterwards.
        self.generation = 0
        self.stats = CacheStats()
        # One evaluation cache is shared by every session executing against
        # the same table; the service runs those executions on concurrent
        # worker threads.  All entries are immutable (frozen arrays) and the
        # stores lock their own bookkeeping, so this lock only makes the
        # counters atomic -- two threads racing to fill the same key both
        # produce exact values, and the first insert is kept.
        self._lock = threading.Lock()

    # Raw leaf columns ---------------------------------------------------- #
    def get_raw(self, key: str) -> _LeafRaw | None:
        with self._lock:
            value = self._raw.get(key)
            if value is None:
                self.stats.leaf_misses += 1
            else:
                self.stats.leaf_hits += 1
            return value

    def put_raw(self, key: str, value: _LeafRaw) -> None:
        with self._lock:
            self._raw.put(key, value)
            self.stats.leaf_evictions = self._raw.evictions

    def peek_raw(self, key: str) -> bool:
        """True when the raw column is cached; no stats, no LRU touch.

        Eligibility probes (is there any work to offload?) use this so
        they neither skew the hit/miss counters nor promote entries the
        probe itself is not going to read.
        """
        return key in self._raw

    # Normalized node columns --------------------------------------------- #
    def get_node(self, key: str) -> _NodeColumns | None:
        with self._lock:
            value = self._nodes.get(key)
            if value is None:
                self.stats.node_misses += 1
            else:
                self.stats.node_hits += 1
            return value

    def put_node(self, key: str, value: _NodeColumns) -> None:
        with self._lock:
            self._nodes.put(key, value)
            self.stats.node_evictions = self._nodes.evictions

    def peek_node(self, key: str) -> bool:
        """True when the node column is cached; no stats, no LRU touch."""
        return key in self._nodes

    def record(self, **counts: int) -> None:
        """Add to named :class:`CacheStats` counters, atomically."""
        with self._lock:
            for name, value in counts.items():
                setattr(self.stats, name, getattr(self.stats, name) + value)

    def clear(self) -> None:
        """Drop all cached arrays and make every site entry stale, so the
        next event is cold (counters are kept)."""
        with self._lock:
            self._raw.clear()
            self._nodes.clear()
            self.generation += 1


# --------------------------------------------------------------------------- #
# Plan compilation
# --------------------------------------------------------------------------- #
@dataclass
class LeafPlan:
    """A leaf of the execution plan (predicate or subquery distances)."""

    node: Union[PredicateLeaf, SubqueryNode]
    #: Identity of the raw distance computation (weight-independent).
    raw_key: str

    @property
    def weight(self) -> float:
        return self.node.weight

    def value_key(self, capacity: int, target_max: float) -> str:
        return stable_fingerprint("leaf", self.raw_key, self.node.weight, capacity, target_max)


@dataclass
class CompositePlan:
    """An AND/OR combination step over child plans."""

    node: Union[AndNode, OrNode]
    rule: CombinationRule
    children: list["PlanNode"] = field(default_factory=list)

    @property
    def weight(self) -> float:
        return self.node.weight

    def value_key(self, capacity: int, target_max: float,
                  child_keys: tuple[str, ...] | None = None) -> str:
        """Value fingerprint; ``child_keys`` are the children's, when known."""
        if child_keys is None:
            child_keys = tuple(child.value_key(capacity, target_max)
                               for child in self.children)
        return stable_fingerprint(
            self.rule, self.node.weight, capacity, target_max, *child_keys)


PlanNode = Union[LeafPlan, CompositePlan]


def compile_plan(condition: QueryNode) -> PlanNode:
    """Compile a condition tree into an execution plan.

    ``NOT`` nodes are rewritten into their inverted comparison at compile
    time (the rewrite :func:`reference_feedback` applies as it walks the
    tree); negations that cannot be rewritten raise ``ValueError``,
    mirroring the paper's statement that they provide no distance values.

    Composite exact masks are reduced from the rewritten children's masks,
    so for NaN data a negated comparison follows SQL three-valued logic
    (NaN fulfils neither ``a > 5`` nor ``NOT (a > 5)``).
    """
    if isinstance(condition, NotNode):
        return compile_plan(condition.simplify())
    if isinstance(condition, (PredicateLeaf, SubqueryNode)):
        return LeafPlan(node=condition, raw_key=condition.source_fingerprint())
    if isinstance(condition, (AndNode, OrNode)):
        rule = CombinationRule.AND if isinstance(condition, AndNode) else CombinationRule.OR
        return CompositePlan(
            node=condition,
            rule=rule,
            children=[compile_plan(child) for child in condition.children],
        )
    raise TypeError(f"unsupported query node type: {type(condition).__name__}")


# --------------------------------------------------------------------------- #
# The reference: naive whole-table evaluation
# --------------------------------------------------------------------------- #
def reference_feedback(table, condition: QueryNode, config) -> QueryFeedback:
    """The feedback of ``condition`` over ``table``, computed the naive way.

    Every node's feedback comes from one walk down the query tree, each
    node after its children, by the paper's rules (section 5.2): ``NOT``
    is rewritten into the inverted comparison, a leaf's distances and
    mask come from its predicate over the whole table, a composite
    combines its children's normalized columns (:func:`combine_columns`)
    and masks (:func:`combine_masks`) under the rule of its node type, and
    every node is then normalized with its own weight.  Beyond those
    NumPy-level functions and the predicates it shares nothing with the
    sharded evaluator -- no compiled plan, no :class:`EvaluationCache`, no
    range indexes, no shards, no chunked columns -- so a bug in any of
    them cannot hide behind a shared code path.  Around the walk: the
    display capacity, the displayed-set selection with the capacity trim,
    the stable relevance ordering and the result count -- one whole-table
    NumPy call each (the relevance factors are derived on read, see
    :class:`QueryFeedback`).

    ``condition`` is the effective condition (qualified and joined, see
    :meth:`PreparedQuery.refresh`) and ``config`` a
    :class:`~repro.core.engine.PipelineConfig`.  Every production frame,
    for every shard count, backend and event history, must equal this bit
    for bit; the test suites' reference helpers all route through here.
    """
    from repro.core.engine import item_capacity  # engine imports this module

    n = len(table)
    n_predicates = condition.leaf_count()
    capacity = item_capacity(config, n_predicates)
    if config.percentage is not None:
        capacity = min(capacity, max(1, int(round(config.percentage * n))))
    node_feedback: dict[NodePath, NodeFeedback] = {}

    def walk(node: QueryNode, path: NodePath) -> NodeFeedback:
        if isinstance(node, NotNode):
            return walk(node.simplify(), path)
        if isinstance(node, (AndNode, OrNode)):
            rule = (CombinationRule.AND if isinstance(node, AndNode)
                    else CombinationRule.OR)
            children = [walk(child, path + (i,))
                        for i, child in enumerate(node.children)]
            signed = None
            raw = combine_columns(
                rule, [child.normalized_distances for child in children],
                np.array([child.weight for child in children], dtype=float))
            exact = combine_masks(rule, [child.exact_mask for child in children])
        elif isinstance(node, (PredicateLeaf, SubqueryNode)):
            source = node if isinstance(node, SubqueryNode) else node.predicate
            signed = np.asarray(source.signed_distances(table), dtype=float)
            raw = np.abs(signed)
            exact = np.asarray(source.exact_mask(table), dtype=bool)
            if not getattr(source, "supports_direction", True):
                signed = None
        else:
            raise TypeError(f"unsupported query node type: {type(node).__name__}")
        node_feedback[path] = NodeFeedback(
            path=path,
            label=node.label,
            weight=node.weight,
            is_leaf=not isinstance(node, (AndNode, OrNode)),
            normalized_distances=reduced_normalization(
                raw, node.weight, capacity, target_max=config.target_max),
            signed_distances=signed,
            exact_mask=exact,
            raw_distances=raw,
        )
        return node_feedback[path]

    overall = walk(condition, ())
    distances = overall.normalized_distances
    displayed = select_display_set(
        distances,
        capacity=max(1, config.screen.pixels // config.pixels_per_item),
        n_selection_predicates=n_predicates,
        method=(ReductionMethod.PERCENTAGE if config.percentage is not None
                else config.reduction),
        percentage=config.percentage,
        multipeak_z=config.multipeak_z,
    )
    if len(displayed) > capacity:
        displayed = displayed[np.argsort(distances[displayed], kind="stable")[:capacity]]
    display_order = displayed[np.argsort(distances[displayed], kind="stable")]
    return QueryFeedback(
        table=table,
        query_description=condition.describe(),
        node_feedback=node_feedback,
        display_order=display_order,
        statistics=FeedbackStatistics(
            num_objects=n,
            num_displayed=len(display_order),
            percentage_displayed=(len(display_order) / n) if n else 0.0,
            num_results=int(np.count_nonzero(overall.exact_mask)),
        ),
        relevance_scale=config.relevance_scale,
        target_max=config.target_max,
        display_capacity=capacity,
    )
