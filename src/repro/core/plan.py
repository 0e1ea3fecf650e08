"""Execution plans: compiled query trees evaluated through a result cache.

:func:`compile_plan` turns a condition tree into a tree of plan nodes, each
carrying a stable fingerprint of the computation it performs.  The paper's
conclusions ask for exactly this seam: "retrieve more data than necessary in
the beginning and retrieve only the additional portion of the data that is
needed for a slightly modified query later on" -- between two executions of
an interactively modified query most of the tree is unchanged, so most
per-node results can be reused byte-for-byte.

Caching happens at two levels, matching what each modification invalidates:

* **raw leaf columns** (signed distances, absolute distances, exact masks)
  are keyed by the predicate fingerprint alone.  Weight, percentage and
  display-capacity changes reuse them untouched; only an actual predicate
  change (a slider move) recomputes the one affected leaf.
* **normalized node columns** are keyed by the node's value fingerprint
  (raw identity + weights + normalization parameters).  A weight change
  re-normalizes the affected path; everything off the path is a cache hit.

Incremental and cold executions share this evaluator, so an incremental
re-execution returns exactly (bit-for-bit) the feedback a cold
:class:`~repro.core.pipeline.VisualFeedbackQuery` run would.  Against the
classic :class:`~repro.core.relevance.RelevanceEvaluator` the results are
numerically equivalent but not guaranteed bit-identical: the AND
combination accumulates per-column here versus a BLAS matrix-vector
product there, which may round differently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.core.chunks import ChunkedColumn, as_array, as_chunked
from repro.core.combine import CombinationRule, combine_columns
from repro.core.normalization import NORMALIZED_MAX, reduced_normalization
from repro.core.result import NodeFeedback
from repro.obs import trace as obs
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
from repro.query.predicates import RangePredicate
from repro.storage.cache import MAX_UNION_DISJUNCTS, PrefetchCache

__all__ = [
    "LeafPlan",
    "CompositePlan",
    "PlanNode",
    "compile_plan",
    "CacheStats",
    "EvaluationCache",
    "PlanEvaluator",
    "ShardSliceCache",
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
    """Per-node arrays for one (weights, capacity) configuration."""

    normalized: Column
    signed: Column | None
    exact_mask: Column
    raw: Column

    def __post_init__(self) -> None:
        _freeze(self.normalized, self.signed, self.exact_mask, self.raw)


@dataclass(frozen=True)
class _RangeHistory:
    """Raw columns of a range (slider) leaf and the bounds they were built for.

    The base a delta update patches from: rows outside the band between
    these bounds and the new ones keep their values.
    """

    low: float
    high: float
    raw: _LeafRaw


@dataclass(frozen=True)
class ShardSliceEntry:
    """Incremental per-shard state of one plan-node *site*.

    A site is a structural position in one prepared query's plan (leaf or
    composite), identified independently of the mutable parameters (bounds,
    weights).  The entry remembers what the node's column looked like after
    the previous execution -- its value fingerprint, the resolved
    ``(d_min, d_max)``, per-shard order-statistic summaries against that
    resolve, and the arrays themselves (shared with the node LRU, so no
    extra column memory) -- which is exactly what a later execution needs
    to recompute only the shards an event actually dirtied.

    ``summaries`` is a ``(shard_count, 5)`` array of per-shard
    ``(finite_count, min, max, count < d_max, count <= d_max)``.  Summing
    the counts over all shards re-certifies the resolved bounds in O(dirty
    shards + shard_count) without touching clean shards: the ``keep``-th
    smallest of the new column equals the old ``d_max`` exactly when
    ``count< < keep <= count<=`` -- no merge of value multisets needed.

    Patch provenance is **per prepared query**: a site belongs to exactly
    one prepared query, so the entry is that query's own previous state and
    no other session can move it.  A leaf entry names the raw column it
    derives from (``raw_key``); a range leaf's entry also records the
    ``(attribute, low, high)`` its raw columns were built for, which makes
    the rows an event changes -- and so the dirty shards -- a pure function
    of those bounds, the new bounds and the per-shard sorted indexes,
    whoever computed the new raw column.  A composite entry names its child
    value keys, weights and rule.  Entries are validated against this
    provenance before any patch, so a stale entry can only cause a full
    recompute, never a wrong patch.
    """

    value_key: str
    columns: _NodeColumns
    resolved: tuple[float, float] | None
    #: (shard_count, 5) float array of per-shard order-statistic summaries
    #: relative to ``resolved`` (None when not captured).
    summaries: np.ndarray | None
    target_max: float
    shard_count: int
    #: Leaf provenance: identity of the raw column the entry derives from.
    raw_key: str | None = None
    #: Range-leaf provenance: ``(attribute, low, high)`` of the range
    #: predicate ``columns``' raw arrays were computed for.
    range_bounds: tuple[str, float, float] | None = None
    #: Composite provenance: child value keys / weights / rule at build time.
    child_keys: tuple[str, ...] | None = None
    child_weights: tuple[float, ...] | None = None
    rule: object | None = None
    generation: int = 0


class ShardSliceCache:
    """Generation-tagged LRU of :class:`ShardSliceEntry` per node site.

    ``invalidate()`` bumps the generation, making every existing entry
    stale at once; :meth:`EvaluationCache.clear` uses it so entries cached
    by an in-flight evaluation cannot be re-published after the clear.
    Wholesale *shape* changes of one prepared query are invalidated
    differently -- the query regenerates its slice token, orphaning its
    old sites without touching other sessions' entries (which share this
    per-table store).  Parameter-level changes (bounds, weights, capacity)
    need no explicit invalidation at all: entries carry their provenance
    and a mismatch falls back to a full recompute.
    """

    def __init__(self, max_entries: int = 64):
        self._lru = _LRU(max_entries)
        self.generation = 0

    def get(self, key: str) -> ShardSliceEntry | None:
        entry = self._lru.get(key)
        if entry is not None and entry.generation != self.generation:
            return None
        return entry

    def put(self, key: str, entry: ShardSliceEntry) -> None:
        """Publish an entry stamped with the generation its writer read.

        An entry carrying a stale generation is silently dropped: its
        writer started evaluating before an ``invalidate()`` (a concurrent
        :meth:`EvaluationCache.clear`), so publishing it would resurrect
        state the clear was meant to discard.
        """
        if entry.generation != self.generation:
            return
        self._lru.put(key, entry)

    def invalidate(self) -> None:
        self.generation += 1

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound; an evicted site's next event
        finds no entry and recomputes every shard."""
        return self._lru.evictions

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)


class _LRU:
    """A tiny bounded mapping evicting the least recently used entry."""

    def __init__(self, max_entries: int):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.evictions = 0
        self._data: OrderedDict[str, object] = OrderedDict()

    def get(self, key: str):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def contains(self, key: str) -> bool:
        """Membership test without touching recency."""
        return key in self._data

    def put(self, key: str, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`EvaluationCache` (for tests/benchmarks)."""

    leaf_hits: int = 0
    leaf_misses: int = 0
    node_hits: int = 0
    node_misses: int = 0
    leaf_evictions: int = 0
    node_evictions: int = 0
    #: Sharded dirty-tracking: node recomputations that patched a previous
    #: column (slice_hits) vs. falling back to a full per-shard recompute.
    slice_hits: int = 0
    slice_misses: int = 0
    #: Site entries the slice LRU dropped to stay within its bound (live
    #: sessions x plan nodes above the bound evict each other's state).
    slice_evictions: int = 0
    #: Per-shard work attribution across all patched/full node stages:
    #: shards whose slice had to be recomputed vs. reused verbatim.
    shards_recomputed: int = 0
    shards_reused: int = 0
    #: Patched nodes whose merged (d_min, d_max) came out unchanged, so the
    #: clean shards' normalized slices were reused without renormalizing.
    bounds_shortcircuits: int = 0
    #: Displayed-set selections patched from cached per-shard top-k partials.
    displayed_patches: int = 0
    #: Result counts served from per-shard mask popcounts (dirty shards
    #: recounted, clean shards' cached counts reused) instead of a full
    #: O(n) popcount of the root fulfilment mask.
    result_count_patches: int = 0
    #: Executions that ran with dirty-shard tracking enabled.
    incremental_events: int = 0
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
        return {
            "leaf_hits": self.leaf_hits,
            "leaf_misses": self.leaf_misses,
            "node_hits": self.node_hits,
            "node_misses": self.node_misses,
            "leaf_evictions": self.leaf_evictions,
            "node_evictions": self.node_evictions,
            "slice_hits": self.slice_hits,
            "slice_misses": self.slice_misses,
            "slice_evictions": self.slice_evictions,
            "shards_recomputed": self.shards_recomputed,
            "shards_reused": self.shards_reused,
            "bounds_shortcircuits": self.bounds_shortcircuits,
            "displayed_patches": self.displayed_patches,
            "result_count_patches": self.result_count_patches,
            "incremental_events": self.incremental_events,
            "chunks_patched": self.chunks_patched,
            "chunks_shared": self.chunks_shared,
            "quantile_certified": self.quantile_certified,
            "quantile_fallbacks": self.quantile_fallbacks,
        }


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

    def __init__(self, max_leaf_entries: int = 64, max_node_entries: int = 128,
                 max_slice_entries: int = 64):
        self._raw = _LRU(max_leaf_entries)
        self._nodes = _LRU(max_node_entries)
        #: Last range-leaf result per attribute, whichever prepared query
        #: wrote it.  The monolithic evaluator patches every range leaf from
        #: it.  The sharded evaluator patches a leaf from its prepared
        #: query's own site entry, and reads this only as the seed for a
        #: site that has no entry yet -- and, by presence, to tell a warm
        #: slider attribute from a cold one.
        self._range_history: dict[str, _RangeHistory] = {}
        #: Per-site incremental shard state (sharded evaluator only).  The
        #: entries reference the same arrays as the node LRU, so the extra
        #: footprint is the (small) per-shard partials plus metadata.
        self._slices = ShardSliceCache(max_slice_entries)
        self.stats = CacheStats()
        # One evaluation cache is shared by every session executing against
        # the same table; the service runs those executions on concurrent
        # worker threads.  All entries are immutable (frozen arrays), so the
        # lock only has to make the LRU bookkeeping and counters atomic --
        # two threads racing to fill the same key both produce exact values.
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
        with self._lock:
            return self._raw.contains(key)

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
        with self._lock:
            return self._nodes.contains(key)

    # Range-leaf history ---------------------------------------------------- #
    def range_history(self, attribute: str) -> _RangeHistory | None:
        with self._lock:
            return self._range_history.get(attribute)

    def set_range_history(self, attribute: str, low: float, high: float,
                          raw: _LeafRaw) -> None:
        with self._lock:
            self._range_history[attribute] = _RangeHistory(low, high, raw)

    # Shard-slice entries --------------------------------------------------- #
    def slice_generation(self) -> int:
        """Current slice generation; writers stamp their entries with it."""
        with self._lock:
            return self._slices.generation

    def get_slice(self, site: str) -> ShardSliceEntry | None:
        with self._lock:
            return self._slices.get(site)

    def put_slice(self, site: str, entry: ShardSliceEntry) -> None:
        with self._lock:
            self._slices.put(site, entry)
            self.stats.slice_evictions = self._slices.evictions

    def record_incremental_event(self) -> None:
        with self._lock:
            self.stats.incremental_events += 1

    def record_displayed_patch(self) -> None:
        with self._lock:
            self.stats.displayed_patches += 1

    def record_result_count_patch(self) -> None:
        with self._lock:
            self.stats.result_count_patches += 1

    def record_chunks(self, patched: int, shared: int) -> None:
        """Account one copy-on-write column patch's chunk reuse."""
        with self._lock:
            self.stats.chunks_patched += patched
            self.stats.chunks_shared += shared

    def record_quantile(self, certified: bool) -> None:
        """Account one quantile-reduction selection's certificate outcome."""
        with self._lock:
            if certified:
                self.stats.quantile_certified += 1
            else:
                self.stats.quantile_fallbacks += 1

    def record_slice(self, *, hit: bool, recomputed: int, reused: int,
                     shortcircuit: bool = False) -> None:
        """Account one node-column computation's dirty-shard outcome."""
        with self._lock:
            if hit:
                self.stats.slice_hits += 1
            else:
                self.stats.slice_misses += 1
            self.stats.shards_recomputed += recomputed
            self.stats.shards_reused += reused
            if shortcircuit:
                self.stats.bounds_shortcircuits += 1

    def clear(self) -> None:
        """Drop all cached arrays (counters are kept)."""
        with self._lock:
            self._raw.clear()
            self._nodes.clear()
            self._range_history.clear()
            self._slices.clear()
            self._slices.invalidate()


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

    def value_key(self, capacity: int, target_max: float) -> str:
        return stable_fingerprint(
            self.rule,
            self.node.weight,
            capacity,
            target_max,
            *[child.value_key(capacity, target_max) for child in self.children],
        )


PlanNode = Union[LeafPlan, CompositePlan]


def compile_plan(condition: QueryNode) -> PlanNode:
    """Compile a condition tree into an execution plan.

    ``NOT`` nodes are rewritten into their inverted comparison at compile
    time (the same rewrite :class:`RelevanceEvaluator` applies during
    evaluation); negations that cannot be rewritten raise ``ValueError``,
    mirroring the paper's statement that they provide no distance values.

    Composite exact masks are reduced from the rewritten children's masks,
    so for NaN data a negated comparison follows SQL three-valued logic
    (NaN fulfils neither ``a > 5`` nor ``NOT (a > 5)``).  The v1.0
    evaluator was internally inconsistent here: the NOT node's own window
    used the rewritten mask while its parent's mask used the set
    complement, counting NaN rows as results of the negation.
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
# Plan evaluation
# --------------------------------------------------------------------------- #
class PlanEvaluator:
    """Evaluate a compiled plan over a table, reusing cached node results.

    Parameters
    ----------
    table:
        The evaluation table (base table or materialised cross product).
    display_capacity:
        ``r`` in the paper's normalization formula (see
        :class:`~repro.core.relevance.RelevanceEvaluator`).
    cache:
        Shared :class:`EvaluationCache`; pass a fresh instance for a cold run.
    prefetch:
        Optional :class:`~repro.storage.cache.PrefetchCache` over ``table``;
        when present, range-predicate fulfilment sets are answered through
        it (and through its range indexes) instead of a fresh column scan.
    """

    def __init__(self, table, display_capacity: int, target_max: float = NORMALIZED_MAX,
                 cache: EvaluationCache | None = None,
                 prefetch: PrefetchCache | None = None):
        if display_capacity <= 0:
            raise ValueError("display_capacity must be positive")
        self.table = table
        self.display_capacity = display_capacity
        self.target_max = target_max
        self.cache = cache if cache is not None else EvaluationCache()
        self.prefetch = prefetch
        #: Per-event chunked copy-on-write accounting (reset by ``evaluate``).
        self._chunks_patched = 0
        self._chunks_shared = 0

    # ------------------------------------------------------------------ #
    def evaluate(self, plan: PlanNode) -> dict[NodePath, NodeFeedback]:
        """Return a :class:`NodeFeedback` per node path; path ``()`` is the root."""
        self._chunks_patched = 0
        self._chunks_shared = 0
        feedback: dict[NodePath, NodeFeedback] = {}
        self._evaluate(plan, (), feedback)
        return feedback

    # ------------------------------------------------------------------ #
    def _record_chunks(self, column) -> None:
        """Account a freshly patched column's chunk reuse (evaluator + cache)."""
        patched = getattr(column, "patched_chunks", 0)
        shared = getattr(column, "shared_chunks", 0)
        if patched or shared:
            self._chunks_patched += patched
            self._chunks_shared += shared
            self.cache.record_chunks(patched, shared)

    def _chunk_marks(self) -> tuple[int, int]:
        return (self._chunks_patched, self._chunks_shared)

    def _annotate_chunks(self, marks: tuple[int, int]) -> None:
        """Annotate the ambient span with chunk counts accrued since ``marks``."""
        patched = self._chunks_patched - marks[0]
        shared = self._chunks_shared - marks[1]
        if patched or shared:
            obs.annotate(chunks_patched=patched, chunks_shared=shared)

    # ------------------------------------------------------------------ #
    def _evaluate(self, plan: PlanNode, path: NodePath,
                  feedback: dict[NodePath, NodeFeedback]) -> _NodeColumns:
        is_leaf = isinstance(plan, LeafPlan)
        with obs.span("node.evaluate", node=str(path),
                      kind="leaf" if is_leaf else "composite"):
            if is_leaf:
                columns = self._leaf_columns(plan, path)
            else:
                columns = self._composite_columns(plan, path, feedback)
        feedback[path] = NodeFeedback(
            path=path,
            label=plan.node.label,
            weight=plan.node.weight,
            is_leaf=isinstance(plan, LeafPlan),
            normalized_distances=columns.normalized,
            signed_distances=columns.signed,
            exact_mask=columns.exact_mask,
            raw_distances=columns.raw,
        )
        return columns

    def _leaf_columns(self, plan: LeafPlan, path: NodePath = ()) -> _NodeColumns:
        value_key = plan.value_key(self.display_capacity, self.target_max)
        columns = self.cache.get_node(value_key)
        if columns is not None:
            obs.annotate(cache="node-hit")
            return columns
        marks = self._chunk_marks()
        raw = self.cache.get_raw(plan.raw_key)
        if raw is None:
            with obs.span("leaf.raw"):
                raw = self._compute_leaf_raw(plan.node)
            self.cache.put_raw(plan.raw_key, raw)
            obs.annotate(cache="miss")
        else:
            obs.annotate(cache="raw-hit")
        self._annotate_chunks(marks)
        with obs.span("normalize"):
            # Monolithic normalization is a full elementwise pass anyway, so
            # a chunked raw column is materialized once (and cached) here.
            normalized = self._normalize(as_array(raw.raw), plan.node.weight)
        columns = _NodeColumns(
            normalized=normalized,
            signed=raw.signed if raw.supports_direction else None,
            exact_mask=raw.exact_mask,
            raw=raw.raw,
        )
        self.cache.put_node(value_key, columns)
        return columns

    def _compute_leaf_raw(self, node: Union[PredicateLeaf, SubqueryNode]) -> _LeafRaw:
        if isinstance(node, SubqueryNode):
            signed = np.asarray(node.signed_distances(self.table), dtype=float)
            return _LeafRaw(
                signed=signed,
                raw=np.abs(signed),
                exact_mask=np.asarray(node.exact_mask(self.table), dtype=bool),
                supports_direction=True,
            )
        predicate = node.predicate
        if isinstance(predicate, RangePredicate):
            return self._range_leaf_raw(predicate)
        signed = np.asarray(predicate.signed_distances(self.table), dtype=float)
        exact = self._exact_mask(predicate)
        return _LeafRaw(
            signed=signed,
            raw=np.abs(signed),
            exact_mask=exact,
            supports_direction=predicate.supports_direction,
        )

    def _range_leaf_raw(self, predicate: RangePredicate) -> _LeafRaw:
        """Range-leaf distances, recomputed only between the old and new bounds.

        A slider move from ``[old_low, old_high]`` to ``[low, high]`` changes
        the signed distance only for rows with ``v <= max(old_low, low)`` or
        ``v >= min(old_high, high)``.  When the attribute has a range index
        (built once the slider becomes hot) those rows are found in
        O(log n + k) and recomputed with exactly the formula
        :meth:`RangePredicate.signed_distances` uses, so the result is
        bit-identical to a full recomputation -- "retrieve only the
        additional portion of the data" from the paper's conclusions.

        The old bounds and columns are the cache's last range result on the
        attribute, whichever prepared query wrote it: any exact columns for
        any bounds are a valid base, and the monolithic evaluator keeps no
        per-query state.  (The sharded evaluator patches from the prepared
        query's own site entry instead, see
        :meth:`ShardedPlanEvaluator._range_leaf_raw`.)
        """
        attribute = predicate.attribute
        index = None
        if self.prefetch is not None and self.prefetch.indexes:
            index = self.prefetch.indexes.get(attribute)
        history = self.cache.range_history(attribute) if index is not None else None
        if history is not None:
            # Distances change only on the side of a bound that moved: every
            # row violating that bound (its distance is measured against the
            # bound), plus the band the bound swept over.  Rows on the side
            # of an unmoved bound keep their exact values.
            pieces = []
            if predicate.low != history.low:
                pieces.append(index.range_query(None, max(history.low, predicate.low),
                                                sort=False))
            if predicate.high != history.high:
                pieces.append(index.range_query(min(history.high, predicate.high), None,
                                                sort=False))
            changed = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.intp)
            # A delta update only pays off while the touched row set is small;
            # past a third of the table the full vectorised recomputation wins.
            if len(changed) > len(self.table) // 3:
                history = None
        if history is not None:
            # Copy-on-write: only the chunks the swept band intersects are
            # copied; every clean chunk is aliased from the cached column.
            old = history.raw
            signed = as_chunked(old.signed)
            raw = as_chunked(old.raw)
            if len(changed):
                # Gather, then convert: O(changed) for any column dtype.
                values = np.asarray(self.table.column(attribute)[changed], dtype=float)
                below = np.where(values < predicate.low, values - predicate.low, 0.0)
                above = np.where(values > predicate.high, values - predicate.high, 0.0)
                delta = below + above
                delta = np.where(np.isnan(values), np.nan, delta)
                signed = signed.patch(changed, delta)
                raw = raw.patch(changed, np.abs(delta))
                self._record_chunks(signed)
                self._record_chunks(raw)
            result = _LeafRaw(
                signed=signed,
                raw=raw,
                exact_mask=self._exact_mask(predicate),
                supports_direction=True,
            )
        else:
            signed = np.asarray(predicate.signed_distances(self.table), dtype=float)
            result = _LeafRaw(
                signed=signed,
                raw=np.abs(signed),
                exact_mask=self._exact_mask(predicate),
                supports_direction=predicate.supports_direction,
            )
        self.cache.set_range_history(attribute, predicate.low, predicate.high, result)
        return result

    def _normalize(self, values: np.ndarray, weight: float) -> np.ndarray:
        """Reduced normalization of one node column.

        Overridden by the sharded evaluator, which resolves the global
        ``(d_min, d_max)`` bounds from mergeable per-shard partials and then
        applies the (elementwise, hence bit-identical) transform shard by
        shard -- see :mod:`repro.core.shard`.
        """
        return reduced_normalization(
            values, weight, self.display_capacity, target_max=self.target_max
        )

    def _combine(self, rule: CombinationRule, columns: list[np.ndarray],
                 weights: np.ndarray) -> np.ndarray:
        """Combine child columns (overridden to run shard-parallel)."""
        return combine_columns(rule, columns, weights)

    def _exact_mask(self, predicate) -> np.ndarray:
        """Fulfilment mask of one predicate, through the prefetch cache if possible."""
        if (
            self.prefetch is not None
            and isinstance(predicate, RangePredicate)
            and self.table.has_column(predicate.attribute)
            and self.table.is_numeric(predicate.attribute)
        ):
            return self.prefetch.fulfilment_mask(
                {predicate.attribute: (predicate.low, predicate.high)}
            )
        return np.asarray(predicate.exact_mask(self.table), dtype=bool)

    def _union_boxes(self, plan: CompositePlan) -> list[dict] | None:
        """One query box per child when an OR's mask can use the union cache.

        Eligible when every child is a range-predicate leaf over a numeric
        column and there are 2..``MAX_UNION_DISJUNCTS`` of them -- exactly
        the shape :meth:`PrefetchCache.fulfilment_mask_union` answers from
        one cached union region.  A row fulfils the OR iff it fulfils some
        disjunct, and both paths use the identical closed-interval filter
        (NaN excluded), so the union mask is bit-identical to OR-ing the
        per-leaf masks.
        """
        if plan.rule is not CombinationRule.OR:
            return None
        if not 2 <= len(plan.children) <= MAX_UNION_DISJUNCTS:
            return None
        boxes: list[dict] = []
        for child in plan.children:
            if not isinstance(child, LeafPlan):
                return None
            predicate = getattr(child.node, "predicate", None)
            if not isinstance(predicate, RangePredicate):
                return None
            if not (self.table.has_column(predicate.attribute)
                    and self.table.is_numeric(predicate.attribute)):
                return None
            boxes.append({predicate.attribute: (predicate.low, predicate.high)})
        return boxes

    def _composite_columns(self, plan: CompositePlan, path: NodePath,
                           feedback: dict[NodePath, NodeFeedback]) -> _NodeColumns:
        # Children are always walked so that every node path gets feedback;
        # each child resolves from the cache when its subtree is unchanged.
        child_columns = [
            self._evaluate(child, path + (i,), feedback)
            for i, child in enumerate(plan.children)
        ]
        value_key = plan.value_key(self.display_capacity, self.target_max)
        columns = self.cache.get_node(value_key)
        if columns is not None:
            obs.annotate(cache="node-hit")
            return columns
        obs.annotate(cache="miss")
        weights = np.array([child.weight for child in plan.children], dtype=float)
        with obs.span("combine", rule=plan.rule.name):
            combined = self._combine(
                plan.rule, [c.normalized for c in child_columns], weights
            )
        with obs.span("normalize"):
            normalized = self._normalize(combined, plan.node.weight)
        with obs.span("mask"):
            if plan.rule is CombinationRule.AND:
                exact = np.ones(len(self.table), dtype=bool)
                for c in child_columns:
                    exact &= c.exact_mask
            else:
                boxes = self._union_boxes(plan) if self.prefetch is not None else None
                if boxes is not None:
                    exact = self.prefetch.fulfilment_mask_union(boxes)
                else:
                    exact = np.zeros(len(self.table), dtype=bool)
                    for c in child_columns:
                        exact |= c.exact_mask
        columns = _NodeColumns(normalized=normalized, signed=None, exact_mask=exact, raw=combined)
        self.cache.put_node(value_key, columns)
        return columns
