"""Sharded plan execution: row-range partitions with mergeable aggregates.

The paper's interaction loop demands that every slider drag redraws the
relevance visualization at human speed.  The caches of
:mod:`repro.core.plan` remove the redundant recomputation between two
executions of an interactively modified query; what remains is the O(n)
floor of renormalize/recombine/select over the whole evaluation table.
This module -- the one plan evaluator production runs, a one-shard table
being the ``shard_count=1`` case of it -- splits that floor across
row-range shards:

* :class:`ShardedTable` partitions an evaluation table into contiguous
  row ranges (zero-copy NumPy views), with one
  :class:`~repro.storage.index.SortedIndex` per shard for each hot slider
  attribute;
* :class:`ShardedPlanEvaluator` dispatches per-shard leaf distance
  evaluation, normalization and combination through a thread pool (NumPy
  releases the GIL on the hot kernels);
* four statistics are kept per shard (:class:`ShardStatistic`) and take
  one step, :func:`refresh_statistic`: reuse, recount only the dirty
  shards and patch when the summed counting rows
  (:func:`~repro.core.reduction.rank_counts`) certify, or rebuild.  They
  are each node's reduced-normalization bounds ``(d_min, d_max)`` (a
  rebuild resolves them once over the whole column,
  :func:`~repro.core.normalization.reduced_bounds`) and, above the root,
  the engine's displayed set (bounded per-shard below/tie lists, or the
  quantile's selection) and its result count.

The binding contract -- enforced by ``tests/test_differential.py`` -- is
that sharded execution is **bit-identical** to the naive whole-table
reference (:func:`repro.core.plan.reference_feedback`) for every shard
count.  ``d_min``/``d_max`` are exact array elements resolved by the
monolithic function itself (so the elementwise normalization transform
sees the same scalars), and tie-breaking at the capacity boundary happens
once, by ascending global row index, exactly as a stable argsort would
order it.
Any future backend (process pool, async, remote) must preserve these same
invariants.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar, Union

import numpy as np

from repro.core.chunks import as_array, as_chunked
from repro.core.combine import combine_columns, combine_masks
from repro.core.normalization import (
    NORMALIZED_MAX,
    apply_normalization,
    bounds_identical,
    normalization_keep_count,
    reduced_bounds,
)
from repro.core.plan import (
    CompositePlan,
    EvaluationCache,
    LeafPlan,
    PlanNode,
    ShardSliceEntry,
    _LeafRaw,
    _NodeColumns,
)
from repro.core.reduction import ShardCounts, rank_counts
from repro.core.result import NodeFeedback
from repro.obs import trace as obs
from repro.query.expr import NodePath, PredicateLeaf, SubqueryNode
from repro.query.predicates import RangePredicate
from repro.storage.index import SortedIndex
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.base import ExecBackend

__all__ = [
    "shard_bounds",
    "resolve_worker_count",
    "ShardPool",
    "shared_executor",
    "shutdown_executors",
    "pool_user",
    "NodeDelta",
    "ShardStatistic",
    "refresh_statistic",
    "ShardedTable",
    "ShardedPlanEvaluator",
]

T = TypeVar("T")


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #
def shard_bounds(n_rows: int, shard_count: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` row ranges covering the table.

    Shard sizes differ by at most one row; when ``shard_count`` exceeds
    ``n_rows`` the trailing shards are empty (an empty shard adds zero to
    every counting row, so results are unaffected).
    """
    if shard_count < 1:
        raise ValueError("shard_count must be at least 1")
    if n_rows < 0:
        raise ValueError("n_rows must be non-negative")
    base, extra = divmod(n_rows, shard_count)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(shard_count):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


# --------------------------------------------------------------------------- #
# Worker pools
# --------------------------------------------------------------------------- #
def resolve_worker_count(max_workers: int | None, shard_count: int) -> int:
    """Thread-pool size for a sharded execution.

    Defaults to the machine's CPU count; never more workers than shards
    (the unit of parallel work is one shard).  A result of 1 means "run
    inline" -- no pool is created, so single-core machines pay no thread
    overhead for sharded semantics.
    """
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    return max(1, min(max_workers, shard_count))


class ShardPool(ThreadPoolExecutor):
    """A shared shard pool.  ``width`` is its thread count, and the number
    of blocks :func:`_map_blocks` cuts a wave of shard work into."""

    def __init__(self, width: int):
        super().__init__(max_workers=width, thread_name_prefix="repro-shard")
        self.width = width


def _map_blocks(executor: ShardPool | None, fn: Callable[[int], T],
                items: Sequence[int]) -> list[T]:
    """``[fn(i) for i in items]``, split over the pool's threads.

    The items are cut into one contiguous block per pool thread (at most
    one per item); the calling thread runs the first block and the pool
    the rest, so a wave costs ``width - 1`` hand-offs however many shards
    it covers.  Every block finishes before any exception propagates, and
    results come back in ``items`` order.
    """
    blocks = 1 if executor is None else min(executor.width, len(items))
    if blocks <= 1:
        return [fn(i) for i in items]
    cuts = [len(items) * b // blocks for b in range(blocks + 1)]

    def run(b: int) -> list[T]:
        return [fn(i) for i in items[cuts[b]:cuts[b + 1]]]

    futures = [executor.submit(run, b) for b in range(1, blocks)]
    try:
        results = run(0)
    finally:
        wait(futures)
    for future in futures:
        results.extend(future.result())
    return results


_EXECUTORS: dict[int, ShardPool] = {}
_EXECUTORS_LOCK = threading.Lock()
#: Pool generation: bumped by shutdown_executors after it empties the
#: registry.  Users are counted per generation so a shutdown waits only for
#: executions that could hold a handle to the pools being retired --
#: traffic on freshly created pools never delays it.
_GENERATION = 0
_ACTIVE_BY_GENERATION: dict[int, int] = {}
_POOL_CONDITION = threading.Condition(_EXECUTORS_LOCK)


def shared_executor(max_workers: int) -> ShardPool | None:
    """A process-wide thread pool of the given size (None for ``<= 1``).

    Pools are shared across engines and kept for the life of the process:
    shard work is bursty (one burst per execute), so pooling avoids both
    per-execute thread spawning and unbounded thread accumulation when many
    engines are created (e.g. one per test).
    """
    if max_workers <= 1:
        return None
    with _EXECUTORS_LOCK:
        pool = _EXECUTORS.get(max_workers)
        if pool is None:
            pool = ShardPool(max_workers)
            _EXECUTORS[max_workers] = pool
        return pool


class pool_user:
    """Context marking one execution as a live user of the shared pools.

    :meth:`PreparedQuery.execute` holds this across its shard waves so that
    :func:`shutdown_executors` (another engine closing) waits for the whole
    execution instead of yanking the pool between two waves.
    """

    def __enter__(self) -> "pool_user":
        with _POOL_CONDITION:
            self._generation = _GENERATION
            _ACTIVE_BY_GENERATION[self._generation] = (
                _ACTIVE_BY_GENERATION.get(self._generation, 0) + 1
            )
        return self

    def __exit__(self, *exc_info) -> None:
        with _POOL_CONDITION:
            remaining = _ACTIVE_BY_GENERATION[self._generation] - 1
            if remaining:
                _ACTIVE_BY_GENERATION[self._generation] = remaining
            else:
                del _ACTIVE_BY_GENERATION[self._generation]
            _POOL_CONDITION.notify_all()


def shutdown_executors(drain_timeout: float = 60.0) -> None:
    """Shut down every process-shared shard pool (idempotent).

    Embedding services call this (via :meth:`QueryEngine.close`) to release
    worker threads deterministically instead of leaking them until process
    exit.  The registry is emptied first, so an engine that executes
    *afterwards* transparently gets a fresh pool; executions already in
    flight (registered through :class:`pool_user`) are drained before
    their pool joins -- closing one engine never breaks another.  Only
    users of the *retiring* generation are waited for: steady traffic that
    starts after the registry is emptied runs on fresh pools and cannot
    stall the drain.
    """
    global _GENERATION
    with _POOL_CONDITION:
        pools = list(_EXECUTORS.values())
        _EXECUTORS.clear()
        retiring = _GENERATION
        _GENERATION += 1
        # Wait for in-flight executions holding a handle to the old pools;
        # the timeout bounds teardown should a user leak (it cannot via
        # pool_user, which releases in __exit__).
        _POOL_CONDITION.wait_for(
            lambda: all(g > retiring for g in _ACTIVE_BY_GENERATION),
            timeout=drain_timeout,
        )
    for pool in pools:
        pool.shutdown(wait=True)


# --------------------------------------------------------------------------- #
# Sharded table
# --------------------------------------------------------------------------- #
class ShardedTable:
    """Row-range partitioning of one evaluation table.

    Each shard is a zero-copy view (:meth:`~repro.storage.table.Table.slice_rows`);
    hot slider attributes get one shard-local
    :class:`~repro.storage.index.SortedIndex` per shard, which the
    incremental range-delta path queries (adding the shard's start row to
    map local hits to global row numbers).
    """

    def __init__(self, table: Table, shard_count: int):
        self.table = table
        self.bounds = shard_bounds(len(table), shard_count)
        self.shards = [table.slice_rows(start, stop) for start, stop in self.bounds]
        self._indexes: dict[str, list[SortedIndex]] = {}
        self._index_lock = threading.Lock()

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return len(self.table)

    def ensure_index(self, attribute: str) -> None:
        """Build (once) per-shard sorted indexes for a hot slider attribute.

        Safe against concurrent builders *and* concurrent readers that hold
        no lock: every shard's index is built first and the whole list is
        published in one store, so a reader sees all of them or none.
        """
        if self.has_index(attribute):
            return
        if not (self.table.has_column(attribute) and self.table.is_numeric(attribute)):
            return
        with self._index_lock:
            if self.has_index(attribute):
                return
            self._indexes[attribute] = [
                SortedIndex(shard, attribute) for shard in self.shards]

    def has_index(self, attribute: str) -> bool:
        """True once :meth:`ensure_index` built the per-shard indexes."""
        return attribute in self._indexes

    def shard_indexes(self, attribute: str) -> list[SortedIndex] | None:
        """The per-shard (shard-local) indexes for one attribute, if built."""
        return self._indexes.get(attribute)


# --------------------------------------------------------------------------- #
# Sharded plan evaluation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NodeDelta:
    """How one node's output column relates to its previous incarnation.

    ``value_key`` is the fingerprint of the column just produced.  When a
    relation to an earlier column is known, ``base_key`` names that column
    and ``dirty`` lists the shards within which the two may differ -- every
    row outside a dirty shard is *guaranteed* bit-identical.  ``dirty is
    None`` means no relation is known (treat every shard as changed); a
    ``base_key == value_key`` with an empty dirty set is the trivial
    self-relation of a node served wholesale from the cache.

    These deltas are what the per-site entries propagate up the plan:
    a parent combines its children's dirty sets, and the engine patches the
    displayed set from the root's delta.
    """

    value_key: str
    base_key: str | None
    dirty: frozenset | None

    def dirty_since(self, column_key: str) -> tuple[int, ...] | None:
        """The shards in which this column may differ from ``column_key``'s.

        The one question every holder of state derived from an earlier
        column asks -- a parent node of its children, the engine of the
        root: ``()`` means provably bit-identical (the same fingerprint, or
        a delta against it that dirtied nothing), a tuple of ascending
        shard numbers means patch these, ``None`` means no relation is
        known -- rebuild.
        """
        if column_key == self.value_key:
            return ()
        if column_key != self.base_key or self.dirty is None:
            return None
        return tuple(sorted(self.dirty))


@dataclass(frozen=True)
class ShardStatistic:
    """One statistic of a column, kept per shard so events patch it.

    ``counts`` holds each shard's counting row and the order statistics
    the rows certify (:class:`~repro.core.reduction.ShardCounts`),
    ``pieces`` what the statistic keeps of each shard (for the displayed
    sets, ascending global row indices; None where it keeps nothing),
    ``threshold`` the value those were cut at (NaN where nothing is cut)
    and ``value`` the statistic assembled from them.  ``column_key`` names the column it was built
    from, ``source`` is that column object (the same object is its own
    certificate) and ``params`` the parameters it was built under;
    :func:`refresh_statistic` relates all three to the event at hand.
    """

    params: tuple
    counts: ShardCounts
    pieces: tuple
    threshold: float
    value: object
    column_key: str
    source: object


def refresh_statistic(state: ShardStatistic | None, params: tuple,
                      column: NodeDelta, source, ranks: Callable,
                      recount: Callable, assemble: Callable,
                      rebuild: Callable, executor: ShardPool | None = None,
                      ) -> tuple:
    """Reuse, patch or rebuild one per-shard statistic of a column.

    The one step all four statistics take: each node's normalization
    bounds, and above the root the displayed set and the result count.  It
    first asks in which shards ``column`` differs from the one ``state``
    was built from: none (the same column, or the same ``source`` object)
    keeps the pieces; a list of dirty shards is patched --
    ``recount(state, i)`` recounts shard ``i`` against the state's pivots
    and threshold, returning its counting row and piece, and
    ``assemble(counts, pieces)`` builds the value.  Either way the
    summed rows must certify the pivots at ``ranks(count)``, ranks taken
    from the parameters of this call (a node's ``keep`` moves with its
    weight); anything else calls ``rebuild()`` for fresh ``(counts,
    pieces, threshold)``.  Recounts run on ``executor`` (inline when
    None).

    A rebuild says why on the active span in ``state_declined``:
    ``no-state`` (nothing built yet), ``params-changed`` (built under
    other parameters), ``no-relation`` (no dirty-shard relation between
    the two columns is known) or ``certificate-failed`` (the summed rows
    refuted the pivots).  Returns ``(state, dirty, declined)``: the state
    for the next event, the shards ``column`` may differ in from the old
    state's (None when unknown, whatever the certificate said) and the
    decline reason (None when the statistic was served).
    """
    dirty = declined = None
    if state is None:
        declined = "no-state"
    elif state.params != params:
        declined = "params-changed"
    elif state.source is source:
        dirty = ()
    else:
        dirty = column.dirty_since(state.column_key)
        declined = "no-relation" if dirty is None else None
    if dirty is not None:
        fresh = _map_blocks(executor, lambda i: recount(state, i), dirty)
        counts = state.counts.patched(dirty, [row for row, _ in fresh],
                                      ranks(state.counts.count))
        if counts is None:
            declined = "certificate-failed"
        else:
            pieces = list(state.pieces)
            for i, (_, piece) in zip(dirty, fresh):
                pieces[i] = piece
            pieces, threshold = tuple(pieces), state.threshold
            value = assemble(counts, pieces) if dirty else state.value
    if declined is not None:
        obs.annotate(state_declined=declined)
        counts, pieces, threshold = rebuild()
        value = assemble(counts, pieces)
    return (ShardStatistic(params, counts, pieces, threshold, value,
                           column.value_key, source), dirty, declined)


def _bounds_counts(resolved: tuple[float, float] | None,
                   rows: np.ndarray) -> tuple[ShardCounts, tuple, float]:
    """The bounds statistic's certificate, (empty) per-shard pieces and
    (no) threshold, from each shard's counting row against ``resolved``."""
    return (ShardCounts(resolved or (), int(rows[:, 0].sum()), rows),
            (None,) * len(rows), float("nan"))


def _range_bounds(predicate) -> tuple[str, float, float] | None:
    """``(attribute, low, high)`` of a range predicate (None for any other)."""
    if isinstance(predicate, RangePredicate):
        return (predicate.attribute, predicate.low, predicate.high)
    return None


def _offload_declined(reason: str) -> None:
    """Name on the ambient ``pipeline.offload`` span why no op was offered."""
    obs.annotate(offload_declined=reason)


class ShardedPlanEvaluator:
    """Evaluate a compiled plan shard by shard, reusing cached node results.

    The production evaluator for every shard count; ``shard_count=1`` is a
    one-shard table, not a different path.  It produces full-table node
    columns (assembled from per-shard pieces) that are bit-identical to the
    naive whole-table :func:`~repro.core.plan.reference_feedback` the
    tests compare against, whatever mix of cached, patched and freshly
    computed columns an execution ends up using.

    Parameters
    ----------
    sharded:
        The row-range partitioning of the evaluation table (base table or
        materialised cross product).
    display_capacity:
        ``r`` in the paper's normalization formula (see
        :func:`~repro.core.normalization.reduced_normalization`).
    cache:
        Shared :class:`~repro.core.plan.EvaluationCache`; a fresh instance
        gives a cold run.

    Per plan-node *site* the evaluator keeps the previous execution's
    per-shard state (:class:`~repro.core.plan.ShardSliceEntry`) and
    recomputes only the shards an event dirtied:

    * a range-slider move marks as dirty exactly the shards whose rows the
      band between the site entry's bounds and the new ones intersects
      (found through the per-shard sorted indexes);
    * per node, the bounds take the one statistic step
      (:func:`refresh_statistic`): only dirty shards' counting rows are
      recounted against the previous ``(d_min, d_max)``; when they certify
      it, or a resolve comes
      out bit-identical to it (the common case for interior slider moves),
      clean shards' normalized slices are reused verbatim instead of being
      renormalized;
    * composites recombine only shards made dirty by some child, reusing
      clean combined/mask slices.

    Every patch is validated against the entry's recorded provenance (raw
    key, range bounds, child keys + weights, keep/capacity), so a stale
    entry degrades to a full per-shard recompute -- never a wrong answer.
    ``sites`` maps node paths to entries and belongs to one prepared query
    (its per-root state), so every patch chain is based on its own query's
    previous state however many sessions drag the same attribute on the
    shared engine.  Every node the walk produces leaves its entry there,
    whether computed, patched or served from the node cache.  A site
    without an entry (a first execution, the event after a reshape, a
    table swap or an :meth:`EvaluationCache.clear`) is the cold path:
    every stage computes all shards, in-process or -- when the backend
    accepts the whole pipeline -- on its workers.

    ``executor`` is an optional :class:`ShardPool`; each wave of per-shard
    work is cut into one block per pool thread (:func:`_map_blocks`).
    When None (or with a single shard) the work runs inline.
    """

    def __init__(self, sharded: ShardedTable, display_capacity: int,
                 target_max: float = NORMALIZED_MAX,
                 cache: EvaluationCache | None = None,
                 executor: ShardPool | None = None,
                 sites: dict[NodePath, ShardSliceEntry] | None = None,
                 backend: "ExecBackend | None" = None):
        if display_capacity <= 0:
            raise ValueError("display_capacity must be positive")
        self.sharded = sharded
        self.table = sharded.table
        self.display_capacity = display_capacity
        self.target_max = target_max
        self.cache = cache if cache is not None else EvaluationCache()
        self.executor = executor
        self.sites = sites if sites is not None else {}
        #: Optional :class:`repro.backend.base.ExecBackend` offered the
        #: whole plan of a cold site; ``None`` (or a declined op) keeps
        #: the in-process per-shard computation below.
        self.backend = backend
        #: :class:`NodeDelta` per node path of the latest :meth:`evaluate`.
        self.node_deltas: dict[NodePath, NodeDelta] = {}
        #: Cache generation this evaluation started under; entries are
        #: stamped with it so a concurrent cache clear() makes them stale.
        self._generation = self.cache.generation
        #: Per-event chunked copy-on-write accounting (reset by ``evaluate``).
        self._chunks_patched = 0
        self._chunks_shared = 0

    # ------------------------------------------------------------------ #
    def _map_shards(self, fn: Callable[[int], T]) -> list[T]:
        return _map_blocks(self.executor, fn, range(self.sharded.shard_count))

    def _map_over(self, indices: list[int], fn: Callable[[int], T]) -> list[T]:
        """Run ``fn`` over an explicit shard subset (the dirty shards)."""
        return _map_blocks(self.executor, fn, indices)

    def _assemble(self, piece: Callable[[int], np.ndarray],
                  dtype: type = float) -> np.ndarray:
        """The full-table column whose shard ``i`` rows are ``piece(i)``.

        Pieces are written straight into their row range of one output
        array, in parallel.  A single piece already *is* the column: it is
        returned as computed, so a one-shard table pays no assembly copy.
        """
        bounds = self.sharded.bounds
        if len(bounds) == 1:
            return piece(0)
        out = np.empty(len(self.table), dtype=dtype)

        def fill(i: int) -> None:
            out[bounds[i][0]:bounds[i][1]] = piece(i)

        self._map_shards(fill)
        return out

    def _column(self, piece: Callable[[int], np.ndarray], base,
                dirty: frozenset | None, dtype: type = float):
        """The node column whose shard ``i`` rows are ``piece(i)``.

        ``dirty`` names the shards in which it may differ from ``base``:
        None computes every shard (a cold node is a patch with every shard
        dirty), an empty set is ``base`` itself, and otherwise the dirty
        shards' pieces are spliced in copy-on-write (:meth:`_splice`).
        """
        if dirty is None:
            return self._assemble(piece, dtype)
        dirty_sorted = sorted(dirty)
        return self._splice(base, dirty_sorted,
                            self._map_over(dirty_sorted, piece))

    def _splice(self, base, shards: list[int], pieces):
        """``base`` with shard ``shards[j]``'s rows replaced by ``pieces[j]``.

        ``base`` is chunked on the shard grid, one chunk per shard, so each
        piece becomes its shard's chunk as it is (no copy) and every other
        chunk is shared with ``base``.  No shards is ``base`` itself.
        """
        if not shards:
            return base
        column = as_chunked(base, self.sharded.bounds).replaced(shards, pieces)
        self._count_chunks(column)
        return column

    def _valid_entry(self, path: NodePath) -> ShardSliceEntry | None:
        entry = self.sites.get(path)
        if entry is None or entry.generation != self._generation:
            return None
        return entry

    # ------------------------------------------------------------------ #
    def evaluate(self, plan: PlanNode) -> dict[NodePath, NodeFeedback]:
        """Return a :class:`NodeFeedback` per node path; path ``()`` is the root."""
        self.node_deltas = {}
        self._generation = self.cache.generation
        self._chunks_patched = 0
        self._chunks_shared = 0
        self.cache.record(incremental_events=1)
        # Whole-pipeline offload: when the backend accepts, it seeds the
        # raw/node caches with the assembled (bit-identical) columns, so
        # the in-process walk below is pure cache hits (each leaving its
        # site entry) and the feedback frames are built by the exact same
        # code path as always.  A declined or faulted op leaves the caches
        # untouched and the walk computes everything in-process.
        with obs.span("pipeline.offload") as offload:
            accepted = self._try_pipeline(plan)
            offload.annotate(accepted=accepted)
        feedback: dict[NodePath, NodeFeedback] = {}
        self._evaluate(plan, (), feedback)
        return feedback

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
            is_leaf=is_leaf,
            normalized_distances=columns.normalized,
            signed_distances=columns.signed,
            exact_mask=columns.exact_mask,
            raw_distances=columns.raw,
        )
        return columns

    # ------------------------------------------------------------------ #
    def _count_chunks(self, column) -> None:
        """Account a freshly patched column's chunk reuse (evaluator + cache)."""
        patched = getattr(column, "patched_chunks", 0)
        shared = getattr(column, "shared_chunks", 0)
        if patched or shared:
            self._chunks_patched += patched
            self._chunks_shared += shared
            self.cache.record(chunks_patched=patched, chunks_shared=shared)

    def _chunk_marks(self) -> tuple[int, int]:
        return (self._chunks_patched, self._chunks_shared)

    def _annotate_chunks(self, marks: tuple[int, int]) -> None:
        """Annotate the ambient span with chunk counts accrued since ``marks``."""
        patched = self._chunks_patched - marks[0]
        shared = self._chunks_shared - marks[1]
        if patched or shared:
            obs.annotate(chunks_patched=patched, chunks_shared=shared)

    # ------------------------------------------------------------------ #
    # Whole-pipeline offload
    # ------------------------------------------------------------------ #
    def _pipeline_spec(self, plan) -> tuple[dict, list] | None:
        """The picklable pipeline spec, or None when the plan is ineligible.

        Eligibility keeps the offload where it wins and cannot diverge;
        every decline names itself as ``offload_declined`` on the ambient
        span.  Pure predicate plans only (``subquery-leaf``: subquery
        distances may read whole-table state), a root the node LRU cannot
        serve wholesale (``root-cached``), and at least one leaf whose raw
        column actually needs computing (``nothing-to-compute``:
        weight-only moves patch in-process from clean slices).  A range
        leaf declines iff its *own site* holds an entry the in-process walk
        would patch from (``site-has-entry``, the :meth:`_entry_range_base`
        test): such a micro-move costs O(changed rows) in-process, which no
        full per-shard recompute on a worker can beat.  A site without one
        recomputes from scratch either way, so it ships with the rest of
        the plan whatever other sessions dragged on this engine before.
        """
        n = len(self.table)
        meta: list[tuple[object, NodePath, int]] = []
        if self._spec_levels(plan, (), meta) is None:
            return None
        if self.cache.peek_node(
                plan.value_key(self.display_capacity, self.target_max)):
            return _offload_declined("root-cached")
        if not any(
            isinstance(pnode, LeafPlan) and not self.cache.peek_raw(pnode.raw_key)
            for pnode, _, _ in meta
        ):
            return _offload_declined("nothing-to-compute")
        ids = {path: node_id for node_id, (_, path, _) in enumerate(meta)}
        nodes_spec: list[dict] = []
        levels: dict[int, list[int]] = {}
        for node_id, (pnode, path, level) in enumerate(meta):
            keep = normalization_keep_count(
                pnode.node.weight, self.display_capacity, max(n, 1))
            if isinstance(pnode, LeafPlan):
                entry = {"id": node_id, "kind": "leaf",
                         "predicate": pnode.node.predicate, "keep": keep}
            else:
                entry = {
                    "id": node_id, "kind": "composite",
                    "rule": pnode.rule.name,
                    "children": [ids[path + (i,)]
                                 for i in range(len(pnode.children))],
                    "weights": [float(child.weight)
                                for child in pnode.children],
                    "keep": keep,
                }
            nodes_spec.append(entry)
            levels.setdefault(level, []).append(node_id)
        spec = {
            "rows": n,
            "target_max": self.target_max,
            "nodes": nodes_spec,
            "levels": [levels[level] for level in sorted(levels)],
        }
        return spec, meta

    def _spec_levels(self, node, path: NodePath,
                     meta: list[tuple[object, NodePath, int]]) -> int | None:
        """Append ``node``'s subtree to ``meta``, children first, each with
        its level (leaves 0); None when a node makes the plan ineligible.

        A method rather than a recursive closure: a closure that calls
        itself is a reference cycle, and through ``self`` it would keep
        the site entries -- the columns of a dropped query -- alive until
        the cyclic garbage collector happens to run.
        """
        if isinstance(node, LeafPlan):
            if not isinstance(node.node, PredicateLeaf):
                return _offload_declined("subquery-leaf")
            predicate = node.node.predicate
            if isinstance(predicate, RangePredicate):
                entry = self._valid_entry(path)
                if (entry is not None and self._entry_range_base(
                        predicate, entry) is not None):
                    return _offload_declined("site-has-entry")
            meta.append((node, path, 0))
            return 0
        child_levels = []
        for i, child in enumerate(node.children):
            level = self._spec_levels(child, path + (i,), meta)
            if level is None:
                return None
            child_levels.append(level)
        level = max(child_levels) + 1
        meta.append((node, path, level))
        return level

    def _try_pipeline(self, plan) -> bool:
        """Offer the whole plan to the backend's pipeline op.

        On success, every node's assembled columns are installed into the
        raw/node LRUs and as its site's entry -- with the same provenance
        and the same cold-run slice accounting the in-process path would
        record -- then the regular plan walk serves them back out (and the
        next micro-move finds its site entry to patch from).  The columns
        are views of the op's output buffer, not copies: the caches freeze
        them like any column, patches share their untouched chunks, and
        the buffer is released when the last of them dies.
        Returns False when declined; nothing is cached then.  A decline
        before the backend was asked carries ``offload_declined``; the
        backend's own (nowhere to offload to, or a faulted op) carries
        ``backend_fault``.
        """
        backend = self.backend
        shard_count = self.sharded.shard_count
        reason = ("one-shard" if shard_count <= 1
                  else "no-backend" if backend is None
                  else "nothing-to-compute" if len(self.table) == 0 else None)
        if reason is not None:
            _offload_declined(reason)
            return False
        built = self._pipeline_spec(plan)
        if built is None:
            return False
        spec, meta = built
        result = backend.shard_pipeline(self.sharded, spec)
        if result is None:
            return False
        for node_id, (pnode, path, _level) in enumerate(meta):
            data = result["nodes"][node_id]
            signed = None
            if isinstance(pnode, LeafPlan):
                directed = pnode.node.predicate.supports_direction
                self.cache.put_raw(pnode.raw_key, _LeafRaw(
                    signed=data["signed"], raw=data["raw"],
                    exact_mask=data["mask"], supports_direction=directed))
                if directed:
                    signed = data["signed"]
            # Children precede their parent in ``meta``: record each node's
            # key (no relation known; the walk replaces these deltas) so a
            # parent's provenance reads its children's.
            value_key = pnode.value_key(self.display_capacity, self.target_max)
            self.node_deltas[path] = NodeDelta(value_key, None, None)
            self._publish(pnode, path, value_key, _NodeColumns(
                normalized=data["normalized"], signed=signed,
                exact_mask=data["mask"], raw=data["raw"],
                normalization=ShardStatistic(
                    (shard_count,),
                    *_bounds_counts(data["resolved"], data["summaries"]),
                    value=data["resolved"], column_key=value_key,
                    source=data["raw"])))
            self.cache.record(slice_misses=1, shards_recomputed=shard_count)
        return True

    def event_report(self) -> dict[str, object]:
        """Dirty-shard attribution of the latest :meth:`evaluate` call.

        ``root_dirty_shards`` is None when no delta relation was known at
        the root (a cold or wholesale-changed execution); ``patched_nodes``
        counts nodes patched from their site entries, ``cached_nodes``
        nodes served wholesale from the node LRU.
        """
        root = self.node_deltas.get(())
        root_dirty = None
        if root is not None and root.dirty is not None:
            root_dirty = len(root.dirty)
        cached = sum(
            1 for d in self.node_deltas.values() if d.base_key == d.value_key
        )
        patched = sum(
            1 for d in self.node_deltas.values()
            if d.dirty is not None and d.base_key not in (None, d.value_key)
        )
        return {
            "nodes": len(self.node_deltas),
            "cached_nodes": cached,
            "patched_nodes": patched,
            "root_dirty_shards": root_dirty,
            "shard_count": self.sharded.shard_count,
            "chunks_patched": self._chunks_patched,
            "chunks_shared": self._chunks_shared,
        }

    # ------------------------------------------------------------------ #
    # Node columns with dirty-shard patching
    # ------------------------------------------------------------------ #
    def _child_keys(self, plan: CompositePlan, path: NodePath) -> tuple[str, ...]:
        """The children's value keys, as this walk already computed them."""
        return tuple(self.node_deltas[path + (i,)].value_key
                     for i in range(len(plan.children)))

    def _publish(self, plan, path: NodePath, value_key: str,
                 columns: _NodeColumns) -> None:
        """Install a node's columns in the node LRU and as its site's entry."""
        self.cache.put_node(value_key, columns)
        self._leave_entry(plan, path, value_key, columns)

    def _leave_entry(self, plan, path: NodePath, value_key: str,
                     columns: _NodeColumns) -> None:
        """Make ``columns`` the site's entry, the base its next event patches.

        The entry's provenance is a function of the plan node alone: a leaf
        names its raw column (and range bounds), a composite its children's
        value keys, weights and rule.
        """
        if isinstance(plan, LeafPlan):
            provenance = {
                "raw_key": plan.raw_key,
                "range_bounds": _range_bounds(
                    getattr(plan.node, "predicate", None)),
            }
        else:
            provenance = {
                "child_keys": self._child_keys(plan, path),
                "child_weights": tuple(
                    float(child.weight) for child in plan.children),
                "rule": plan.rule,
            }
        self.sites[path] = ShardSliceEntry(
            value_key=value_key, columns=columns,
            generation=self._generation, **provenance)

    def _cache_hit(self, plan, path: NodePath, value_key: str,
                   columns: _NodeColumns) -> _NodeColumns:
        """A node served wholesale from the node cache.

        Identical content by fingerprint identity, and a patch base like any
        other: the site's entry now points at it, unless it already does (a
        replay leaves the entry alone).
        """
        self.node_deltas[path] = NodeDelta(value_key, value_key, frozenset())
        entry = self._valid_entry(path)
        if entry is None or entry.value_key != value_key:
            self._leave_entry(plan, path, value_key, columns)
        return columns

    def _leaf_columns(self, plan, path: NodePath = ()) -> _NodeColumns:
        value_key = plan.value_key(self.display_capacity, self.target_max)
        columns = self.cache.get_node(value_key)
        if columns is not None:
            return self._cache_hit(plan, path, value_key, columns)
        marks = self._chunk_marks()
        entry = self._valid_entry(path)
        raw, dirty, declined = self._leaf_raw(plan, entry)
        if declined is not None:
            obs.annotate(patch_declined=declined)
        delta = NodeDelta(value_key, entry and entry.value_key, dirty)
        normalized, normalization, self.node_deltas[path] = \
            self._normalize_incremental(raw.raw, plan.node.weight, entry, delta)
        columns = _NodeColumns(
            normalized=normalized,
            signed=raw.signed if raw.supports_direction else None,
            exact_mask=raw.exact_mask,
            raw=raw.raw,
            normalization=normalization,
        )
        self._publish(plan, path, value_key, columns)
        self._annotate_chunks(marks)
        return columns

    def _leaf_raw(self, plan, entry: ShardSliceEntry | None
                  ) -> tuple[_LeafRaw, frozenset | None, str | None]:
        """A leaf's raw columns and where they differ from its site entry's.

        Returns ``(raw, dirty, declined)``.  ``dirty`` is the set of shards
        within which ``raw`` may differ from ``entry.columns`` (None =
        unknown, every node above recomputes in full); ``declined`` names
        why a patch was not taken: ``"no-entry"`` (the site has no valid
        entry: this is the cold path, everything computes in full),
        ``"base-mismatch"`` (the entry's columns are no base for
        this computation) or ``"band-too-wide"`` (the move changed more
        than a third of the rows, so the raw columns were recomputed in
        full; ``dirty`` is still known).

        The dirty set of a range move is derived from the entry's own
        bounds, so it holds whether the new raw columns are patched here or
        come out of the raw LRU because another session on the engine
        already computed the same bounds.
        """
        predicate = getattr(plan.node, "predicate", None)
        is_range = isinstance(predicate, RangePredicate)
        base = changed = dirty = declined = None
        if entry is None:
            declined = "no-entry"
        elif entry.raw_key == plan.raw_key:
            # Same raw column (e.g. only the weight moved): nothing is
            # dirty -- the normalize stage decides whether the resolved
            # bounds (hence the normalized column) changed at all.
            dirty = frozenset()
        else:
            if is_range:
                base = self._entry_range_base(predicate, entry)
            if base is None:
                declined = "base-mismatch"
            else:
                changed = self._range_changed_rows(predicate, base)
                dirty = frozenset(
                    i for i, rows in enumerate(changed) if len(rows))
        raw = self.cache.get_raw(plan.raw_key)
        if raw is None:
            if is_range:
                raw, patched = self._range_leaf_raw(plan.node, entry, changed)
                if changed is not None and not patched:
                    declined = "band-too-wide"
            else:
                raw = self._compute_leaf_raw(plan.node)
            self.cache.put_raw(plan.raw_key, raw)
        return raw, dirty, declined

    def _composite_columns(self, plan, path: NodePath,
                           feedback: dict) -> _NodeColumns:
        child_columns = [
            self._evaluate(child, path + (i,), feedback)
            for i, child in enumerate(plan.children)
        ]
        value_key = plan.value_key(self.display_capacity, self.target_max,
                                   self._child_keys(plan, path))
        columns = self.cache.get_node(value_key)
        if columns is not None:
            return self._cache_hit(plan, path, value_key, columns)
        marks = self._chunk_marks()
        weights = np.array([child.weight for child in plan.children], dtype=float)
        entry = self._valid_entry(path)
        dirty = self._children_dirty(entry, plan, path)
        if dirty is None:
            obs.annotate(
                patch_declined="no-entry" if entry is None else "base-mismatch")
        bounds = self.sharded.bounds
        # Children changed only inside the dirty shards (and with unchanged
        # weights/rule), so the combined column and the fulfilment mask
        # change only there too.
        old = entry.columns if dirty is not None else None
        combined = self._column(lambda i: combine_columns(
            plan.rule,
            [c.normalized[bounds[i][0]:bounds[i][1]] for c in child_columns],
            weights,
        ), old and old.raw, dirty)
        exact = self._column(lambda i: combine_masks(
            plan.rule,
            [c.exact_mask[bounds[i][0]:bounds[i][1]] for c in child_columns],
        ), old and old.exact_mask, dirty, bool)
        delta = NodeDelta(value_key, entry and entry.value_key, dirty)
        normalized, normalization, self.node_deltas[path] = \
            self._normalize_incremental(combined, plan.node.weight, entry, delta)
        columns = _NodeColumns(
            normalized=normalized, signed=None, exact_mask=exact, raw=combined,
            normalization=normalization,
        )
        self._publish(plan, path, value_key, columns)
        self._annotate_chunks(marks)
        return columns

    def _children_dirty(self, entry: ShardSliceEntry | None,
                        plan: CompositePlan, path: NodePath) -> frozenset | None:
        """Union of the children's dirty shards, or None when unpatchable.

        A patch of the combined column is only sound when the combination
        inputs are unchanged outside the dirty shards: same rule, same child
        weights, and every child either carries the same value fingerprint
        the entry was built from or reports a delta against exactly that
        fingerprint.
        """
        if entry is None or entry.child_keys is None:
            return None
        if (entry.rule is not plan.rule or entry.child_weights != tuple(
                float(child.weight) for child in plan.children)):
            return None
        acc: set = set()
        for i, built_from in enumerate(entry.child_keys):
            dirty = self.node_deltas[path + (i,)].dirty_since(built_from)
            if dirty is None:
                return None
            acc.update(dirty)
        return frozenset(acc)

    # ------------------------------------------------------------------ #
    # Leaf columns
    # ------------------------------------------------------------------ #
    def _signed_distances(self, source) -> np.ndarray:
        """Signed distances of a predicate, shard by shard."""
        return self._assemble(lambda i: np.asarray(
            source.signed_distances(self.sharded.shards[i]), dtype=float))

    def _compute_leaf_raw(self, node: Union[PredicateLeaf, SubqueryNode]) -> _LeafRaw:
        """Raw columns of a leaf, computed in full."""
        if isinstance(node, SubqueryNode):
            # Subquery distances come from an arbitrary callable that may
            # depend on whole-table state; only row-local predicates are
            # safe to evaluate per shard.
            signed = np.asarray(node.signed_distances(self.table), dtype=float)
            exact = np.asarray(node.exact_mask(self.table), dtype=bool)
            supports_direction = True
        else:
            signed = self._signed_distances(node.predicate)
            exact = self._exact_mask(node.predicate)
            supports_direction = node.predicate.supports_direction
        return _LeafRaw(
            signed=signed,
            raw=np.abs(signed),
            exact_mask=exact,
            supports_direction=supports_direction,
        )

    def _entry_range_base(self, predicate: RangePredicate,
                          entry: ShardSliceEntry) -> tuple[float, float] | None:
        """The ``(low, high)`` a move to ``predicate`` patches ``entry`` from.

        None when the entry's columns are no base for it: not built from a
        range on the same attribute, no signed column, or the attribute
        has no per-shard indexes to find the changed rows with.
        """
        bounds = entry.range_bounds
        if (bounds is None or bounds[0] != predicate.attribute
                or entry.columns.signed is None
                or not self.sharded.has_index(predicate.attribute)):
            return None
        return bounds[1:]

    def _range_changed_rows(self, predicate: RangePredicate,
                            base: tuple[float, float]) -> list[np.ndarray]:
        """Per shard, the shard-local rows whose distance differs between bounds.

        A pure function of the ``base`` bounds, ``predicate``'s bounds and
        the per-shard sorted indexes: distances change only on the side of
        a bound that moved -- every row violating that bound (its distance
        is measured against the bound) plus the band the bound swept over
        -- which each shard's index finds in O(log s + k).  Shards outside
        the band contribute empty change sets.  The low- and high-side
        rows may overlap.
        """
        indexes = self.sharded.shard_indexes(predicate.attribute)
        low, high = base

        def changed_for(i: int) -> np.ndarray:
            pieces = []
            if predicate.low != low:
                pieces.append(indexes[i].range_query(
                    None, max(low, predicate.low), sort=False))
            if predicate.high != high:
                pieces.append(indexes[i].range_query(
                    min(high, predicate.high), None, sort=False))
            if not pieces:
                return np.empty(0, dtype=np.intp)
            return np.concatenate(pieces)

        return self._map_shards(changed_for)

    def _range_leaf_raw(self, node: PredicateLeaf,
                        entry: ShardSliceEntry | None,
                        changed: list[np.ndarray] | None,
                        ) -> tuple[_LeafRaw, bool]:
        """Raw columns of a range leaf, patched from ``entry`` where possible.

        ``entry`` is the prepared query's own previous state of this leaf
        and ``changed`` the :meth:`_range_changed_rows` against its bounds
        (None when the site has no entry :meth:`_entry_range_base`
        accepts): patch provenance is per prepared query, so sessions
        dragging the same attribute on one engine each patch their own
        columns, and a site without an entry computes the leaf in full.

        Only the dirty shards' rows are recomputed, with the formula of
        :meth:`RangePredicate.signed_distances`, so the result matches a
        full recomputation bit for bit; the fulfilment mask is patched from
        the entry's mask over the same rows (a row's membership can only
        change where its distance changes).  Returns ``(raw, patched)``;
        ``patched`` is False when there was no base or the move changed
        more than a third of the table, where the full vectorised
        recomputation (:meth:`_compute_leaf_raw`) wins.
        """
        if (changed is None
                or sum(len(rows) for rows in changed) > len(self.table) // 3):
            return self._compute_leaf_raw(node), False
        predicate = node.predicate
        old = entry.columns
        bounds = self.sharded.bounds
        bases = [as_chunked(c, bounds)
                 for c in (old.signed, old.raw, old.exact_mask)]
        dirty = [i for i, rows in enumerate(changed) if len(rows)]

        def update(i: int) -> list[np.ndarray]:
            rows = changed[i]
            # Gather, then convert: O(changed) for any column dtype.
            values = np.asarray(
                self.sharded.shards[i].column(predicate.attribute)[rows],
                dtype=float)
            below = np.where(values < predicate.low, values - predicate.low, 0.0)
            above = np.where(values > predicate.high, values - predicate.high, 0.0)
            delta = below + above
            delta = np.where(np.isnan(values), np.nan, delta)
            # Membership is "distance == 0": bit-identical to
            # RangePredicate.exact_mask on the changed rows, unchanged
            # (hence reusable) everywhere else.
            member = (values >= predicate.low) & (values <= predicate.high)
            # Each column's shard chunk is copied once and patched in place;
            # the copy becomes the new column's chunk for this shard.
            pieces = []
            for base, fresh in zip(bases, (delta, np.abs(delta), member)):
                piece = np.array(base[bounds[i][0]:bounds[i][1]])
                piece[rows] = fresh
                pieces.append(piece)
            return pieces

        # Per-shard deltas and chunk copies fan out; every clean shard's
        # chunk is aliased from the entry's columns.
        updates = self._map_over(dirty, update)
        signed, raw, mask = (
            self._splice(base, dirty, [u[j] for u in updates])
            for j, base in enumerate(bases))
        return _LeafRaw(signed=signed, raw=raw, exact_mask=mask,
                        supports_direction=True), True

    def _exact_mask(self, predicate) -> np.ndarray:
        """Fulfilment mask of a predicate, shard by shard."""
        return self._assemble(
            lambda i: np.asarray(
                predicate.exact_mask(self.sharded.shards[i]), dtype=bool),
            dtype=bool)

    # ------------------------------------------------------------------ #
    # Normalization / combination
    # ------------------------------------------------------------------ #
    def _normalize_incremental(
        self, values, weight: float, entry: ShardSliceEntry | None,
        delta: NodeDelta,
    ) -> tuple[np.ndarray, ShardStatistic, NodeDelta]:
        """Normalize one node column, recomputing only dirty shards' state.

        Returns ``(normalized, statistic, delta)``.  The incoming ``delta``
        relates ``values`` to ``entry.columns.raw`` under the node's keys
        (its value key names this event's node, its base key the entry's);
        the returned one relates the normalized column the same way.
        Every path is bit-identical to the whole-column
        :func:`~repro.core.normalization.reduced_normalization`:

        * the bounds are the node's statistic and take the one step
          (:func:`refresh_statistic`): ``d_min`` is the rank-0 and
          ``d_max`` the rank-``keep - 1`` order statistic of the finite
          values (the largest when ``keep`` covers them all), so
          recounting only the dirty shards against the entry's bounds and
          summing the per-shard counting rows certifies both unchanged in
          O(dirty rows + shard_count); a rebuild resolves them as a cold
          run does, with one :func:`~repro.core.normalization.reduced_bounds`
          over the whole column, and recounts every shard;
        * when the bounds come out bit-identical to the entry's (certified,
          or re-resolved to the same bits), the elementwise transform of
          every clean shard is bit-identical too, so those slices are
          reused verbatim and only the dirty shards renormalize (the
          short-circuit); otherwise every shard renormalizes and the
          returned delta knows no dirty set (ancestors treat the column as
          changed everywhere).
        """
        bounds = self.sharded.bounds
        shard_count = self.sharded.shard_count
        keep = normalization_keep_count(
            weight, self.display_capacity, max(len(values), 1))

        def recount(state: ShardStatistic, i: int) -> tuple:
            return (rank_counts(values[bounds[i][0]:bounds[i][1]],
                                state.counts.pivots), None)

        def rebuild() -> tuple:
            # The resolve makes a full pass over the column: a chunked
            # column is materialized once here (cached on the instance) so
            # the per-shard slices below are cheap contiguous views.
            nonlocal values
            values = as_array(values)
            resolved = reduced_bounds(values, keep)
            rows = np.asarray(self._map_shards(lambda i: rank_counts(
                values[bounds[i][0]:bounds[i][1]], resolved or ())),
                dtype=float)
            return _bounds_counts(resolved, rows)

        base = entry.columns if entry is not None else None
        old = base and base.normalization
        state, dirty, declined = refresh_statistic(
            old, (shard_count,), delta, values,
            lambda m: (0, min(keep, m) - 1) if m else (), recount,
            lambda counts, pieces: counts.pivots or None, rebuild,
            self.executor)
        d_min, d_max = state.value or (None, None)
        # Short-circuit: bounds unchanged, so clean shards' normalized
        # slices are bit-identical -- renormalize the dirty ones only.
        patched = declined in (None, "certificate-failed")
        shortcircuit = patched and bool(
            bounds_identical(state.value, old.value))
        out_dirty = frozenset(dirty) if shortcircuit else None
        normalized = self._column(lambda i: apply_normalization(
            values[bounds[i][0]:bounds[i][1]], d_min, d_max,
            target_max=self.target_max), base and base.normalized, out_dirty)
        recomputed = len(dirty) if shortcircuit else shard_count
        self.cache.record(
            **{"slice_hits" if patched else "slice_misses": 1},
            bounds_shortcircuits=int(shortcircuit),
            shards_recomputed=recomputed,
            shards_reused=shard_count - recomputed)
        if patched:
            obs.annotate(certificate="bounds", certified=declined is None,
                         shortcircuit=shortcircuit,
                         shards_recomputed=recomputed,
                         shards_reused=shard_count - recomputed)
        return normalized, state, NodeDelta(
            delta.value_key, delta.base_key, out_dirty)
