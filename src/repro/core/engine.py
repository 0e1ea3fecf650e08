"""The prepared-query engine: assemble once, re-execute incrementally.

The whole point of VisDB is the interactive loop -- the user drags a slider
or a weighting factor and the system re-renders feedback fast enough to
steer the query.  :class:`QueryEngine` is the seam that makes that loop
cheap: ``engine.prepare(query)`` assembles the evaluation table once (the
cross product of joined tables is materialised a single time and cached),
compiles the condition tree into a fingerprinted execution plan and owns
the caches that carry per-leaf distance columns across re-executions.

:meth:`PreparedQuery.execute` then recomputes only what a modification
actually invalidated:

* ``SetWeight`` reuses every raw leaf column and redoes only the
  normalization/combination along the changed path;
* ``SetQueryRange`` / ``SetThreshold`` recompute exactly one leaf; a range
  move patches only the rows its swept band touches, found through
  per-shard :class:`~repro.storage.index.SortedIndex` range indexes;
* ``SetPercentageDisplayed`` touches only reduction/normalization -- no
  pipeline object is rebuilt and no distances are recomputed.

Every execution runs the one plan evaluator
(:class:`~repro.core.shard.ShardedPlanEvaluator`) over a row-range
partitioning of the evaluation table; ``shard_count=1`` is a one-shard
table evaluated in-process, not a separate code path.

:class:`~repro.core.pipeline.VisualFeedbackQuery` remains as a thin
backwards-compatible facade over this engine.
"""

from __future__ import annotations

import copy
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Sequence, Union

import numpy as np

from repro.core.chunks import as_array
from repro.core.normalization import NORMALIZED_MAX
from repro.obs import trace as obs
from repro.core.plan import (
    CacheStats,
    CompositePlan,
    EvaluationCache,
    LeafPlan,
    ShardSliceEntry,
    compile_plan,
)
from repro.core.reduction import (
    ReductionMethod,
    ShardCounts,
    display_fraction,
    first_ties,
    kth_smallest,
    rank_counts,
    quantile_rank_bounds,
    select_display_set,
)
from repro.core.shard import (
    NodeDelta,
    ShardedPlanEvaluator,
    ShardedTable,
    ShardStatistic,
    _map_blocks,
    pool_user,
    refresh_statistic,
    resolve_worker_count,
    shared_executor,
    shutdown_executors,
)
from repro.core.relevance import RelevanceScale
from repro.core.result import FeedbackStatistics, QueryFeedback
from repro.query.builder import Query
from repro.query.expr import AndNode, NodePath, PredicateLeaf, QueryNode, check_weight
from repro.query.fingerprint import stable_fingerprint
from repro.query.parser import parse_condition, parse_query
from repro.query.predicates import AttributePredicate, RangePredicate
from repro.storage.cross_product import CrossProduct
from repro.storage.database import Database
from repro.storage.lru import LRUStore
from repro.storage.table import Table

__all__ = ["ScreenSpec", "PipelineConfig", "QueryEngine", "PreparedQuery",
           "check_percentage", "default_backend_name", "default_shard_count"]


def default_backend_name() -> str:
    """Execution backend used when the config leaves ``backend`` unset.

    Reads the ``REPRO_BACKEND`` environment variable (the CI
    ``backend-process`` leg runs the suite with ``REPRO_BACKEND=process``);
    unset or empty means ``"threads"``, the classic in-process path.  A
    name that is set but not registered raises ``ValueError`` listing the
    registered backends -- the same fail-fast contract as
    :func:`default_shard_count`.
    """
    from repro.backend import available_backends

    value = os.environ.get("REPRO_BACKEND", "").strip()
    if not value:
        return "threads"
    if value not in available_backends():
        known = ", ".join(available_backends()) or "(none)"
        raise ValueError(
            f"REPRO_BACKEND names an unknown execution backend {value!r}; "
            f"registered backends: {known}"
        )
    return value


def default_shard_count() -> int:
    """Shard count used when the config leaves ``shard_count`` unset.

    Reads the ``REPRO_SHARDS`` environment variable (the CI differential
    matrix leg runs the whole suite with ``REPRO_SHARDS=4``); unset or
    empty means 1: the same evaluator over a one-shard table, in-process
    (no worker pool, no backend).  A value that is set but not a positive
    integer raises ``ValueError`` immediately -- silently falling back to
    1 here used to turn a typo in a service deployment into an
    unexplained single-shard slowdown.
    """
    value = os.environ.get("REPRO_SHARDS", "").strip()
    if not value:
        return 1
    try:
        count = int(value)
    except ValueError:
        raise ValueError(
            f"REPRO_SHARDS must be a positive integer, got {value!r}"
        ) from None
    if count < 1:
        raise ValueError(f"REPRO_SHARDS must be a positive integer, got {value!r}")
    return count


@dataclass(frozen=True)
class ScreenSpec:
    """Display size in pixels.

    The default is the paper's 19-inch display (1,024 x 1,280 = about 1.3
    million pixels), "the obvious limit for any kind of visualization".
    """

    width: int = 1280
    height: int = 1024

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("screen dimensions must be positive")

    @property
    def pixels(self) -> int:
        """Total number of pixels available for distance values."""
        return self.width * self.height


def check_percentage(percentage: float) -> float:
    """Return ``percentage`` if it is a valid display share (raises ``ValueError``)."""
    if not 0.0 < percentage <= 1.0:
        raise ValueError(f"percentage must be in (0, 1], got {percentage}")
    return percentage


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable parameters of the visual-feedback pipeline."""

    #: Physical display; bounds how many distance values can be shown.
    screen: ScreenSpec = field(default_factory=ScreenSpec)
    #: Each data item is represented by 1, 4 or 16 pixels (paper section 4.2).
    pixels_per_item: int = 1
    #: Heuristic choosing how many data items are displayed.
    reduction: ReductionMethod = ReductionMethod.QUANTILE
    #: User-chosen fraction of the data to display (overrides the heuristics).
    percentage: float | None = None
    #: Mapping from normalized combined distance to relevance factor.
    relevance_scale: RelevanceScale = RelevanceScale.LINEAR
    #: Cap on the number of cross-product pairs materialised for joins.
    max_join_pairs: int | None = 250_000
    #: Seed for deterministic cross-product sampling.
    join_seed: int = 0
    #: Upper end of the normalized distance range.
    target_max: float = NORMALIZED_MAX
    #: Half-width parameter z for the multi-peak heuristic (None = automatic).
    multipeak_z: int | None = None
    #: Row-range shards the evaluation table is split into.  None defers to
    #: the ``REPRO_SHARDS`` environment variable (default 1: one shard,
    #: evaluated in-process without a pool or backend); any value keeps
    #: results bit-identical -- sharding only changes *how* the same arrays
    #: are computed, by the same evaluator.
    shard_count: int | None = None
    #: Worker threads for per-shard work (None = CPU count, capped at the
    #: shard count; 1 runs inline without a pool).
    max_workers: int | None = None
    #: Execution backend for sharded work ("threads", "process", or any
    #: name registered via :func:`repro.backend.register_backend`).  None
    #: defers to the ``REPRO_BACKEND`` environment variable (default
    #: "threads"); every backend is bit-identical -- like sharding, it
    #: only changes *where* the same arrays are computed.
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.pixels_per_item not in (1, 4, 16):
            raise ValueError("pixels_per_item must be 1, 4 or 16")
        if self.percentage is not None:
            check_percentage(self.percentage)
        if not 0.0 < self.target_max < float("inf"):
            raise ValueError(
                f"target_max must be finite and > 0, got {self.target_max!r}")
        for name in ("shard_count", "max_workers", "multipeak_z"):
            value = getattr(self, name)
            if value is None:
                continue
            # Reject non-integers (strings from a config file or a
            # protocol ``open``, floats, bools) up front: a "4" would only
            # blow up deep inside the thread-pool sizing or the multi-peak
            # cut with an unrelated error.
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < 1):
                raise ValueError(
                    f"{name} must be a positive integer or None, got {value!r}"
                )
        if self.backend is not None:
            from repro.backend import available_backends

            if not isinstance(self.backend, str):
                raise ValueError(
                    f"backend must be a registered backend name or None, "
                    f"got {self.backend!r}"
                )
            if self.backend not in available_backends():
                known = ", ".join(available_backends()) or "(none)"
                raise ValueError(
                    f"unknown execution backend {self.backend!r}; "
                    f"registered backends: {known}"
                )

    def with_(self, **changes) -> "PipelineConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **changes)


QuerySource = Union[Query, QueryNode, str]


def _plan_shape(plan) -> tuple:
    """Structural identity of a compiled plan, ignoring mutable parameters.

    Two plans share a shape when they have the same tree of composites and
    leaves over the same attributes/predicate kinds -- exactly the states
    between which per-site dirty-shard patching is meaningful.  Bounds and
    weights are deliberately excluded: those are what the events move.
    """
    if isinstance(plan, LeafPlan):
        predicate = getattr(plan.node, "predicate", None)
        return (
            "leaf",
            type(plan.node).__name__,
            type(predicate).__name__ if predicate is not None else None,
            getattr(predicate, "attribute", None),
        )
    if isinstance(plan, CompositePlan):
        return (str(plan.rule), tuple(_plan_shape(child) for child in plan.children))
    return (type(plan).__name__,)


@dataclass
class _RootState:
    """Everything one prepared query derived from its previous executions.

    ``sites`` holds the evaluator's per-node entries (the columns each plan
    node last produced or was served, with each node's normalization
    bounds as a :class:`~repro.core.shard.ShardStatistic`, which the next
    event patches); ``displayed`` (percentage or quantile path) and
    ``result_count`` are the two statistics of the root column, kept the
    same way and refreshed by the same step
    (:func:`~repro.core.shard.refresh_statistic`).  The fingerprints name
    the *computation*, not the table it ran over, so the holder is
    replaced wholesale -- one assignment forgets it all -- whenever the
    evaluation table or the plan shape changes, and it goes with the
    query: a dropped query pins no column the node LRU evicted.
    """

    sites: dict[NodePath, ShardSliceEntry] = field(default_factory=dict)
    displayed: ShardStatistic | None = None
    result_count: ShardStatistic | None = None


def coerce_query(source: Database | Table, query: QuerySource) -> Query:
    """Accept a :class:`Query`, a bare condition tree or SQL-like text."""
    if isinstance(query, Query):
        return query
    if isinstance(query, QueryNode):
        table_names = [source.name] if isinstance(source, Table) else list(
            getattr(source, "table_names", [])
        )[:1]
        return Query(name="ad-hoc", tables=table_names or ["?"], condition=query)
    if isinstance(query, str):
        text = query.strip()
        if text.lower().startswith("select"):
            return parse_query(text)
        condition = parse_condition(text)
        table_names = [source.name] if isinstance(source, Table) else list(
            getattr(source, "table_names", [])
        )[:1]
        return Query(name="ad-hoc", tables=table_names or ["?"], condition=condition)
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def item_capacity(config: PipelineConfig, n_selection_predicates: int) -> int:
    """Number of data items displayable given the screen and the query size.

    Every item occupies ``pixels_per_item`` pixels in each of the
    ``#sp + 1`` windows (overall plus one per selection predicate).
    """
    per_item = config.pixels_per_item * (n_selection_predicates + 1)
    return max(1, config.screen.pixels // per_item)


def qualify_condition(condition: QueryNode, table: Table) -> QueryNode:
    """Rewrite unqualified attribute references for a cross-product table.

    Cross-product columns are prefixed with their table names
    (``Weather.Temperature``); predicates written with bare attribute
    names are rewritten to the unique matching prefixed column.
    """
    condition = copy.deepcopy(condition)
    for _, leaf in condition.iter_leaves():
        predicate = leaf.predicate
        attribute = getattr(predicate, "attribute", None)
        if attribute is None or table.has_column(attribute):
            continue
        matches = [c for c in table.column_names if c.endswith(f".{attribute}")]
        if len(matches) == 1:
            # All concrete predicates are dataclasses with an
            # ``attribute`` field, so this assignment is well-defined.
            predicate.attribute = matches[0]
        elif len(matches) > 1:
            raise ValueError(
                f"attribute {attribute!r} is ambiguous in the join result; "
                f"qualify it as one of {matches}"
            )
        else:
            raise KeyError(
                f"attribute {attribute!r} not found in the join result columns"
            )
    return condition


class QueryEngine:
    """Prepares queries against one source and owns the shared caches.

    Parameters
    ----------
    source:
        A :class:`~repro.storage.database.Database` (required for queries
        with connections) or a single :class:`~repro.storage.table.Table`.
    config:
        Default pipeline configuration; keyword overrides may be passed
        directly, e.g. ``QueryEngine(db, percentage=0.4)``.

    The engine caches three kinds of state across :meth:`prepare` calls:

    * materialised cross-product tables, keyed by the joined tables and the
      sampling parameters;
    * an :class:`~repro.core.plan.EvaluationCache` of distance columns per
      evaluation table;
    * a :class:`~repro.core.shard.ShardedTable` per evaluation table and
      shard count: the row-range partitioning with lazily built
      :class:`~repro.storage.index.SortedIndex` range indexes per shard,
      which find the rows a slider move changes.
    """

    #: Cap on cached cross-product tables (each pins up to ``max_join_pairs``
    #: rows plus its evaluation cache); least recently used evicted first.
    max_cached_tables = 8

    def __init__(self, source: Database | Table, config: PipelineConfig | None = None,
                 **overrides):
        self.source = source
        base = config or PipelineConfig()
        self.config = base.with_(**overrides) if overrides else base
        self._tables: LRUStore[Table] = LRUStore(
            self.max_cached_tables, on_evict=self._forget_table)
        # Keyed by id() but each entry keeps the table strongly referenced,
        # so the id cannot be recycled while the entry exists; a mismatched
        # table at the same address (freed + reallocated) is detected and
        # its stale entry replaced.
        self._caches: dict[int, tuple[Table, EvaluationCache]] = {}
        # Per (table, shard count): the row-range partitioning with its
        # per-shard indexes.
        self._sharded: dict[tuple[int, int], tuple[Table, ShardedTable]] = {}
        # Lazily instantiated execution backends, one per backend name used
        # by this engine; created through the provider registry so stats
        # and close() stay engine-scoped.
        self._backends: dict[str, "ExecBackend"] = {}
        # Guards the shared per-table state above: the feedback service
        # prepares and executes sessions on concurrent worker threads, and
        # every execution resolves its caches through these dictionaries.
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; :meth:`prepare` then raises."""
        return self._closed

    def close(self) -> None:
        """Release cached tables/caches and shut worker pools down (idempotent).

        Embedding services use this for deterministic teardown: after
        ``close()`` the engine holds no cross-product tables, distance
        caches or range indexes, and the process-shared shard pools have
        joined their threads (they are lazily recreated should another
        engine execute afterwards).  Calling :meth:`prepare` on a closed
        engine raises ``RuntimeError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._tables.clear()
            self._caches.clear()
            self._sharded.clear()
            backends = list(self._backends.values())
            self._backends.clear()
        for backend in backends:
            backend.close()
        shutdown_executors()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def execution_backend(self, name: str) -> "ExecBackend":
        """The engine's backend instance for ``name`` (created on first use).

        Instances come from the provider registry
        (:func:`repro.backend.create_backend`), one per name per engine, so
        their counters are engine-scoped and :meth:`close` can release them
        deterministically.
        """
        from repro.backend import create_backend

        with self._lock:
            if self._closed:
                raise RuntimeError("QueryEngine is closed")
            backend = self._backends.get(name)
            if backend is None:
                backend = create_backend(name, max_workers=self.config.max_workers)
                self._backends[name] = backend
            return backend

    def stats(self) -> dict[str, int]:
        """Aggregate cache counters across every evaluation table.

        Sums the :class:`~repro.core.plan.CacheStats` of all evaluation
        caches; the service metrics endpoint surfaces this dictionary as
        the engine-wide cache picture.
        """
        with self._lock:
            caches = [entry[1] for entry in self._caches.values()]
            backends = list(self._backends.values())
        totals: dict[str, int] = {key: 0 for key in CacheStats().as_dict()}
        for cache in caches:
            for key, value in cache.stats.as_dict().items():
                totals[key] += value
        totals["backend"] = self._backend_stats(backends)
        return totals

    def _backend_stats(self, backends: "list[ExecBackend]") -> dict:
        """Merged view of this engine's backend instances.

        Counters (ops, fallbacks, restarts, traffic) sum across instances;
        gauges describing shared infrastructure (worker/publication state)
        take the maximum so a pool is not double-counted when several
        backend instances share it.
        """
        from repro.backend import ExecBackend

        gauges = {"worker_count", "workers_alive",
                  "published_tables", "published_bytes"}
        merged: dict = dict(ExecBackend().stats())
        try:
            merged["name"] = self.config.backend or default_backend_name()
        except ValueError:
            merged["name"] = self.config.backend or "threads"
        for backend in backends:
            for key, value in backend.stats().items():
                if not isinstance(value, int):
                    continue
                if key in gauges:
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def prepare(self, query: QuerySource, **overrides) -> "PreparedQuery":
        """Assemble the evaluation table and compile the query into a plan.

        Table assembly (including the cross product for joins) happens here,
        once; the returned :class:`PreparedQuery` only re-walks the compiled
        plan on :meth:`~PreparedQuery.execute`.
        """
        if self._closed:
            raise RuntimeError("QueryEngine is closed; create a new engine to prepare queries")
        query = coerce_query(self.source, query)
        config = self.config.with_(**overrides) if overrides else self.config
        table = self._assemble_table(query, config)
        prepared = PreparedQuery(self, query, table, config)
        if query.condition is not None:
            prepared.refresh()
        return prepared

    def _base_tables(self, query: Query) -> list[Table]:
        if isinstance(self.source, Table):
            return [self.source]
        tables: list[Table] = []
        for name in query.tables:
            if name in self.source:
                tables.append(self.source.table(name))
        if not tables:
            raise ValueError(
                f"none of the query tables {query.tables!r} exist in the database"
            )
        return tables

    def _assemble_table(self, query: Query, config: PipelineConfig | None = None) -> Table:
        """Resolve (and for joins, materialise and cache) the evaluation table."""
        config = config if config is not None else self.config
        tables = self._base_tables(query)
        if not query.connections:
            if len(tables) > 1:
                raise ValueError(
                    "multi-table queries need at least one connection (join) "
                    "to relate the tables"
                )
            return tables[0]
        involved = {c.left_table for c in query.connections} | {
            c.right_table for c in query.connections
        }
        if len(involved) != 2:
            raise NotImplementedError(
                "the pipeline currently supports joins between exactly two tables; "
                f"the query connects {sorted(involved)}"
            )
        if isinstance(self.source, Table):
            raise ValueError("queries with connections require a Database source")
        first = query.connections[0]
        key = stable_fingerprint(
            first.left_table, first.right_table,
            config.max_join_pairs, config.join_seed,
        )
        table = self._tables.get(key)
        if table is not None:
            return table
        # Materialise outside the lock: the cross product can take seconds,
        # and concurrent sessions must keep resolving their caches (which
        # also take self._lock) meanwhile.  Two threads may race to build
        # the same table; the first insert wins so identity stays single.
        product = CrossProduct(
            self.source.table(first.left_table),
            self.source.table(first.right_table),
            max_pairs=config.max_join_pairs,
            seed=config.join_seed,
        )
        # The parallel unit here is one column gather, independent of
        # sharding: any multi-core host benefits even at shard_count 1.
        workers = config.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        with pool_user():
            table = product.to_table(executor=shared_executor(workers))
        return self._tables.put(key, table)

    def _forget_table(self, table: Table) -> None:
        """Drop an evicted join table's evaluation cache and partitionings."""
        with self._lock:
            self._caches.pop(id(table), None)
            for stale in [k for k in self._sharded if k[0] == id(table)]:
                del self._sharded[stale]

    # ------------------------------------------------------------------ #
    # Shared per-table state
    # ------------------------------------------------------------------ #
    #: Approximate byte budget per cache level (raw leaves / node columns)
    #: per evaluation table; entry counts derive from it so memory stays
    #: bounded independent of table size.
    cache_budget_bytes = 128 * 1024 * 1024

    def evaluation_cache(self, table: Table) -> EvaluationCache:
        """The distance-column cache for one evaluation table."""
        with self._lock:
            entry = self._caches.get(id(table))
            if entry is None or entry[0] is not table:
                # ~24 bytes/row per entry (two float64 columns + masks).
                per_entry = max(len(table), 1) * 24
                max_entries = int(np.clip(self.cache_budget_bytes // per_entry, 8, 128))
                entry = (table, EvaluationCache(
                    max_leaf_entries=min(max_entries, 64),
                    max_node_entries=max_entries,
                ))
                self._caches[id(table)] = entry
            return entry[1]

    def sharded_table(self, table: Table, shard_count: int) -> ShardedTable:
        """The (cached) row-range partitioning of one evaluation table."""
        with self._lock:
            key = (id(table), shard_count)
            entry = self._sharded.get(key)
            if entry is None or entry[0] is not table:
                entry = (table, ShardedTable(table, shard_count))
                self._sharded[key] = entry
            return entry[1]

    def ensure_range_index(self, table: Table, attribute: str,
                           shard_count: int = 1) -> None:
        """Build (once) sorted range indexes serving a slider attribute.

        The indexes are per shard of ``table``'s ``shard_count``-way
        partitioning (one index over the whole table at one shard), each
        mapped to global row numbers by its shard's start row, so a slider
        event later touches only the shards whose rows the swept band
        intersects.  The O(n log n) builds run outside the engine lock (it
        guards only the cache-dictionary lookups), so concurrent sessions
        keep resolving their caches while one session's slider goes hot.
        """
        self.sharded_table(table, shard_count).ensure_index(attribute)


class PreparedQuery:
    """A query bound to its (already assembled) evaluation table.

    Obtained from :meth:`QueryEngine.prepare`; supports cheap incremental
    re-execution after interactive modifications.  The condition tree is
    shared with ``query.condition`` and may be mutated between executions
    (that is exactly what session events do); :meth:`execute` detects the
    change through fingerprints and recomputes only the dirty subtrees.
    """

    def __init__(self, engine: QueryEngine, query: Query, table: Table,
                 config: PipelineConfig):
        self.engine = engine
        self.query = query
        self.table = table
        self.config = config
        #: Effective shard count, resolved once (config, else REPRO_SHARDS)
        #: so the execution mode cannot flip mid-session with the
        #: environment; the per-shard state built by refresh() stays valid.
        self.shard_count = max(1, config.shard_count or default_shard_count())
        #: Effective execution backend, resolved once for the same reason:
        #: where shard work runs must not flip mid-session with the
        #: environment.
        self.backend_name = config.backend or default_backend_name()
        self.executions = 0
        self._join_leaves: list[PredicateLeaf] | None = None
        self._effective: QueryNode | None = None
        self._effective_fp: str | None = None
        self._plan = None
        self._shape_fp = self._query_shape_fingerprint()
        self._plan_shape: tuple | None = None
        self._forget()

    def _forget(self) -> None:
        """Drop every piece of state derived from earlier executions.

        Called when the evaluation table is replaced or the plan changes
        *shape* (wholesale query replacement): neither the site entries
        nor the per-root statistics (displayed set, quantile state, result
        count) can be patched across the change.
        """
        self._root = _RootState()

    def _query_shape_fingerprint(self) -> str:
        """Identity of the parts that determine the evaluation table."""
        return stable_fingerprint(
            tuple(self.query.tables),
            *[
                (c.key, c.kind, c.parameter, c.tolerance,
                 str(c.left_attribute), str(c.right_attribute))
                for c in self.query.connections
            ],
        )

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def condition(self) -> QueryNode | None:
        """The user-level condition tree (mutated by modification events)."""
        return self.query.condition

    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss and incremental-evaluation counters of the table's cache."""
        return self.engine.evaluation_cache(self.table).stats.as_dict()

    # ------------------------------------------------------------------ #
    # Plan maintenance
    # ------------------------------------------------------------------ #
    def _build_join_leaves(self) -> list[PredicateLeaf]:
        if self._join_leaves is None:
            self._join_leaves = [
                PredicateLeaf(connection.to_predicate(), label=connection.describe())
                for connection in self.query.connections
            ]
        return self._join_leaves

    def refresh(self) -> None:
        """Recompile the plan if the user condition changed since last time.

        Called automatically by :meth:`execute`; cheap (a fingerprint walk)
        when nothing changed.
        """
        shape = self._query_shape_fingerprint()
        if shape != self._shape_fp:
            # Tables or connections were mutated: the evaluation table
            # itself is stale.  Re-assemble (the engine caches cross
            # products, so an unchanged join key is still cheap).  The
            # cached state is keyed by value fingerprints, which name the
            # computation and not the table it ran over: none of it may
            # survive the swap.
            self.table = self.engine._assemble_table(self.query, self.config)
            self._join_leaves = None
            self._effective_fp = None
            self._shape_fp = shape
            self._forget()
        condition = self.query.condition
        if condition is None:
            if not self.query.connections:
                raise ValueError("the query has no condition; nothing to visualize")
            fingerprint = stable_fingerprint("no-condition")
        else:
            fingerprint = condition.fingerprint()
        if fingerprint == self._effective_fp:
            return
        if not self.query.connections:
            # The plan is compiled from the live tree: events replace
            # predicate objects and set weights, and nothing changes the
            # tree between this refresh and the evaluation after it.
            effective = condition
        else:
            join_leaves = self._build_join_leaves()
            if condition is not None:
                qualified = qualify_condition(condition, self.table)
                effective = AndNode([qualified, *join_leaves], label="overall")
            elif len(join_leaves) == 1:
                effective = join_leaves[0]
            else:
                effective = AndNode(join_leaves, label="overall")
        self._effective = effective
        self._plan = compile_plan(effective)
        self._effective_fp = fingerprint
        shape = _plan_shape(self._plan)
        if shape != self._plan_shape:
            if self._plan_shape is not None:
                # The query was restructured wholesale.
                self._forget()
            self._plan_shape = shape
        if self.executions > 0:
            # The query is being re-executed interactively: mark the range
            # (slider) attributes as hot and index them once, so subsequent
            # drags find the rows they change in O(log n + k).  Cold
            # one-shot runs never reach this and skip the index build.
            for _, leaf in effective.iter_leaves():
                if isinstance(leaf.predicate, RangePredicate):
                    self.engine.ensure_range_index(
                        self.table, leaf.predicate.attribute,
                        shard_count=self.shard_count,
                    )

    # ------------------------------------------------------------------ #
    # Modification
    # ------------------------------------------------------------------ #
    def apply_change(self, event) -> tuple:
        """Apply one query-modification event to the prepared state.

        Supported events: :class:`SetWeight`, :class:`SetQueryRange`,
        :class:`SetThreshold` (all mutate the condition tree) and
        :class:`SetPercentageDisplayed` (a config change; no rebuild).

        Returns the change as ``(target, attribute, old, new)``: the event
        replaced ``target.attribute``'s value ``old`` by ``new``, so
        ``setattr(target, attribute, old)`` reverts it.  An event that
        raises changes nothing.
        """
        # Imported lazily: repro.interact imports the core pipeline, so a
        # module-level import here would be circular.
        from repro.interact.events import (
            SetPercentageDisplayed,
            SetQueryRange,
            SetThreshold,
            SetWeight,
        )

        if isinstance(event, SetWeight):
            target, attribute = self._condition_root().find(tuple(event.path)), "weight"
            new = check_weight(event.weight)
        elif isinstance(event, SetQueryRange):
            target, attribute = self._leaf_at(event.path), "predicate"
            predicate = target.predicate
            if isinstance(predicate, RangePredicate):
                new = predicate.with_range(event.low, event.high)
            elif isinstance(predicate, AttributePredicate):
                new = RangePredicate(predicate.attribute, event.low, event.high)
            else:
                raise TypeError(
                    f"predicate {predicate.describe()!r} does not support a range slider"
                )
        elif isinstance(event, SetThreshold):
            target, attribute = self._leaf_at(event.path), "predicate"
            predicate = target.predicate
            if not isinstance(predicate, AttributePredicate):
                raise TypeError(
                    f"predicate {predicate.describe()!r} has no single threshold to move"
                )
            new = AttributePredicate(
                predicate.attribute, predicate.operator, float(event.value)
            )
        elif isinstance(event, SetPercentageDisplayed):
            target, attribute = self, "config"
            new = self.config.with_(percentage=event.percentage)
        else:
            raise TypeError(
                f"unsupported query modification: {type(event).__name__}"
            )
        old = getattr(target, attribute)
        setattr(target, attribute, new)
        return target, attribute, old, new

    def _condition_root(self) -> QueryNode:
        if self.query.condition is None:
            raise ValueError("the query has no condition to modify")
        return self.query.condition

    def _leaf_at(self, path: NodePath) -> PredicateLeaf:
        node = self._condition_root().find(tuple(path))
        if not isinstance(node, PredicateLeaf):
            raise TypeError(f"node at path {path!r} is not a predicate leaf")
        return node

    # ------------------------------------------------------------------ #
    # Per-root statistics: reuse, patch the dirty shards, or rebuild
    # ------------------------------------------------------------------ #
    def _percentage_displayed(self, distances, sharded: ShardedTable,
                              root: NodeDelta, target: int,
                              ) -> tuple[np.ndarray, bool]:
        """Percentage-path displayed set from bounded per-shard below/tie lists.

        Returns ``(displayed, served)``, ``served`` False when the lists
        were rebuilt.

        ``target`` is the number of rows the display percentage selects.
        The threshold is the ``target``-th smallest (NaN-masked) distance;
        each shard keeps its ascending global row indices strictly below it
        and, of those exactly at it, only the first ``target`` minus the
        rows below -- all the ties it could contribute, so at most
        ``target`` rows -- while its counting row keeps the true
        ``count(<)`` and ``count(<=)``.  Only the shards the root delta
        marks dirty are cut again; the threshold still holds its rank when
        fewer than ``target`` rows lie strictly below it and at least
        ``target`` at or below, and ties at the boundary resolve under the
        stable-argsort rule (smallest global row indices win), so the
        patched displayed set equals a cold selection bit for bit.  A
        rebuild takes the threshold with one
        :func:`~repro.core.reduction.kth_smallest` over the whole column
        and cuts every shard the way a patch cuts its dirty ones.
        """
        bounds = sharded.bounds

        def masked(part: np.ndarray) -> np.ndarray:
            finite = np.isfinite(part)
            return part if finite.all() else np.where(finite, part, np.inf)

        def cut(part: np.ndarray, i: int, threshold: float):
            # ``part`` is shard ``i``'s masked distances.
            start = bounds[i][0]
            below = np.flatnonzero(part < threshold) + start
            need = max(target - len(below), 0)
            ties = first_ties(part, threshold, need, need)[:need] + start
            at_most = len(below) + np.count_nonzero(part == threshold)
            return (len(part), len(below), at_most), (below, ties)

        def assemble(counts: ShardCounts, pieces: tuple) -> np.ndarray:
            # Per-shard lists are ascending and shard ranges are ordered, so
            # their concatenation is the global ascending index order.  Only
            # the first `need` ties (in global row order) are displayed; a
            # shard's list holds at least min(need, its ties) of them.
            need = target - int(counts.rows[:, 1].sum())
            kept = [below for below, _ in pieces if len(below)]
            for _, ties in pieces:
                if need <= 0:
                    break
                kept.append(ties[:need])
                need -= len(kept[-1])
            displayed = np.sort(np.concatenate(kept))
            displayed.flags.writeable = False
            return displayed

        def rebuild():
            # A chunked root is materialized once for the whole-column pass.
            column = masked(as_array(distances))
            threshold = float(kth_smallest(column, min(target, len(column))))
            fresh = [cut(column[start:stop], i, threshold)
                     for i, (start, stop) in enumerate(bounds)]
            rows = np.asarray([row for row, _ in fresh], dtype=float)
            counts = ShardCounts((threshold,), len(column), rows)
            return counts, tuple(piece for _, piece in fresh), threshold

        self._root.displayed, _, declined = refresh_statistic(
            self._root.displayed, ("percentage", target), root, distances,
            lambda m: (min(target, m) - 1,), lambda state, i: cut(
                masked(distances[bounds[i][0]:bounds[i][1]]), i,
                state.threshold),
            assemble, rebuild)
        if declined is None:
            self.engine.evaluation_cache(self.table).record(displayed_patches=1)
        return self._root.displayed.value, declined is None

    def _quantile_displayed(self, distances, sharded: ShardedTable,
                            root: NodeDelta, executor, p: float,
                            ) -> tuple[np.ndarray, bool]:
        """Quantile-path displayed set, certified by per-shard order statistics.

        Returns ``(displayed, certified)``.  ``np.quantile``'s linear
        interpolation makes the threshold a function of exactly two order
        statistics of the ``m`` finite distances
        (:func:`~repro.core.reduction.quantile_rank_bounds`).  ``certified``
        True means dirty-shard recounts alone proved both still hold, so the
        cached threshold *float* is provably unchanged and only the dirty
        shards' selected lists rebuild: O(dirty shards) work, no O(n)
        concatenate or quantile.  Otherwise the exact per-shard rebuild runs
        (bit-identical to the whole-column
        :func:`~repro.core.reduction.select_by_quantile`) and re-seeds the
        certificate for the next event.
        """
        bounds = sharded.bounds

        def select(i: int, threshold: float) -> np.ndarray:
            start, stop = bounds[i]
            part = distances[start:stop]
            return np.nonzero(np.isfinite(part) & (part <= threshold))[0] + start

        def recount(state, i: int):
            return (rank_counts(distances[bounds[i][0]:bounds[i][1]],
                                state.counts.pivots),
                    select(i, state.threshold))

        def rebuild():
            # Per-shard finite values concatenated in row order are the
            # exact quantile input; the threshold is applied shard by shard.
            def finite_part(i: int) -> np.ndarray:
                part = distances[bounds[i][0]:bounds[i][1]]
                return part[np.isfinite(part)]

            finite_parts = _map_blocks(executor, finite_part,
                                       range(len(bounds)))
            finite = np.concatenate(finite_parts)
            m = len(finite)
            threshold, pivots = float("nan"), ()
            if m:
                threshold = float(np.quantile(finite, p))
                ranks = quantile_rank_bounds(m, p)
                order_stats = np.partition(finite, ranks)
                pivots = tuple(float(order_stats[k]) for k in ranks)
            rows = np.asarray([rank_counts(part, pivots) for part in finite_parts],
                              dtype=float)
            selected = _map_blocks(
                executor, lambda i: select(i, threshold), range(len(bounds)))
            return ShardCounts(pivots, m, rows), tuple(selected), threshold

        self._root.displayed, _, declined = refresh_statistic(
            self._root.displayed, ("quantile", p), root, distances,
            lambda m: quantile_rank_bounds(m, p), recount,
            lambda counts, pieces: np.concatenate(pieces), rebuild)
        certified = declined is None
        self.engine.evaluation_cache(self.table).record(**{
            "quantile_certified" if certified else "quantile_fallbacks": 1})
        return self._root.displayed.value, certified

    def _result_count(self, mask: np.ndarray, sharded: ShardedTable,
                      root: NodeDelta) -> int:
        """``result_count`` from per-shard mask popcounts, patched per event.

        The root fulfilment mask changes only inside the shards the root
        delta marks dirty (a mask entry is a pure function of the row's
        distances), so cached clean-shard counts stay exact; the sum over
        shards equals ``np.count_nonzero(mask)`` bit for bit.  The same
        mask *object* (a wholesale cache hit) is its own certificate.
        """
        bounds = sharded.bounds

        def recount(state, i: int):
            return (np.count_nonzero(mask[bounds[i][0]:bounds[i][1]]),), None

        def rebuild():
            rows = np.asarray([recount(None, i)[0] for i in range(len(bounds))],
                              dtype=float)
            return (ShardCounts((), None, rows), (None,) * len(bounds),
                    float("nan"))

        self._root.result_count, _, declined = refresh_statistic(
            self._root.result_count, (), root, mask, lambda m: (), recount,
            lambda counts, pieces: int(counts.rows.sum()), rebuild)
        if declined is None:
            self.engine.evaluation_cache(self.table).record(result_count_patches=1)
        return self._root.result_count.value

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, changes: Sequence | None = None) -> QueryFeedback:
        """Re-execute the prepared query, recomputing only dirty subtrees.

        ``changes`` (optional) are applied first via :meth:`apply_change` --
        a convenience for scripted feedback loops; events applied directly
        to the shared condition tree are detected just the same.

        Returns the full :class:`~repro.core.result.QueryFeedback`; its
        relevance column is derived only if someone reads it.
        """
        if changes:
            for event in changes:
                self.apply_change(event)
        with obs.span("engine.refresh"):
            self.refresh()
        condition = self._effective
        table = self.table
        n = len(table)
        n_predicates = condition.leaf_count()
        capacity_items = item_capacity(self.config, n_predicates)
        target = None
        if self.config.percentage is not None:
            # A user-chosen display percentage changes the normalization range:
            # "changing the percentage of data being displayed may completely
            # change the visualization since the distance values are normalized
            # according to the new range" (section 4.3).
            target = max(1, int(round(self.config.percentage * n)))
            capacity_items = min(capacity_items, target)
        shard_count = self.shard_count
        # Registered as a pool user across all shard waves, so a concurrent
        # QueryEngine.close() elsewhere in the process drains this
        # execution instead of shutting the pool down between two waves.
        with pool_user():
            sharded = self.engine.sharded_table(table, shard_count)
            backend = executor = None
            if shard_count > 1:
                # One shard has nothing to fan out: it is evaluated inline,
                # and no backend (pool, shm publication) is ever created.
                backend = self.engine.execution_backend(self.backend_name)
                backend.prepare(sharded)
                executor = shared_executor(resolve_worker_count(
                    self.config.max_workers, shard_count))
            evaluator = ShardedPlanEvaluator(
                sharded,
                display_capacity=capacity_items,
                target_max=self.config.target_max,
                cache=self.engine.evaluation_cache(table),
                executor=executor,
                sites=self._root.sites,
                backend=backend,
            )
            with obs.span("plan.evaluate", shards=shard_count,
                          backend=self.backend_name if backend else None
                          ) as eval_span:
                node_feedback = evaluator.evaluate(self._plan)
                # Dirty-shard attribution of this event, for the trace,
                # benchmarks and the service metrics: how many shards the
                # event actually touched and how many node columns were
                # patched vs. served wholesale.
                event_report = evaluator.event_report()
                eval_span.annotate(**event_report)
            overall = node_feedback[()]
            # How this event's root column relates to the one the cached
            # per-root state was built from (see refresh_statistic).
            root = evaluator.node_deltas[()]
            pixel_budget = max(1, self.config.screen.pixels // self.config.pixels_per_item)
            method = (
                ReductionMethod.PERCENTAGE
                if self.config.percentage is not None
                else self.config.reduction
            )
            with obs.span("displayed.select", method=method.name) as sel:
                if n and method is ReductionMethod.QUANTILE:
                    # The quantile certificate: dirty-shard recounts proved
                    # the cached threshold element still the p-quantile, or
                    # the exact rebuild ran (bit-identical either way).
                    displayed, certified = self._quantile_displayed(
                        overall.normalized_distances, sharded, root, executor,
                        display_fraction(pixel_budget, n, n_predicates),
                    )
                    sel.annotate(certificate="quantile", node="()",
                                 certified=certified)
                elif n and target is not None:
                    # The displayed-set certificate: the cached threshold
                    # still holds its rank (reused or patched), or the lists
                    # were rebuilt.
                    displayed, certified = self._percentage_displayed(
                        overall.normalized_distances, sharded, root, target)
                    sel.annotate(certificate="displayed-topk", node="()",
                                 certified=certified)
                else:
                    # Whole-column selection: an empty table, or the
                    # multi-peak heuristic (needs the globally sorted prefix).
                    displayed = select_display_set(
                        overall.normalized_distances,
                        capacity=pixel_budget,
                        n_selection_predicates=n_predicates,
                        method=method,
                        percentage=self.config.percentage,
                        multipeak_z=self.config.multipeak_z,
                    )
        if len(displayed) > capacity_items:
            # More items fall inside the quantile window than fit on screen
            # (ties at the threshold): keep the closest ones.
            distances = overall.normalized_distances[displayed]
            order = np.argsort(distances, kind="stable")
            displayed = displayed[order[:capacity_items]]
        # Sort the displayed items by relevance (ascending combined distance);
        # this ordering drives the spiral arrangement of the overall window
        # and, via positional correspondence, all per-predicate windows.
        display_order = displayed[
            np.argsort(overall.normalized_distances[displayed], kind="stable")
        ]
        with obs.span("result_count"):
            num_results = self._result_count(overall.exact_mask, sharded, root)
        statistics = FeedbackStatistics(
            num_objects=n,
            num_displayed=len(display_order),
            percentage_displayed=(len(display_order) / n) if n else 0.0,
            num_results=num_results,
        )
        self.executions += 1
        extra = {
            "display_fraction": display_fraction(pixel_budget, n, n_predicates),
            "pixels_per_item": self.config.pixels_per_item,
            # Map node path -> query-tree node, used by the slider layer to
            # recover predicate attributes and query ranges.  Shallow
            # copies: later events replace predicates and weights on the
            # live tree, and this feedback must keep describing its own.
            "condition_nodes": {path: copy.copy(node)
                                for path, node in condition.iter_nodes()},
            "incremental": event_report,
        }
        return QueryFeedback(
            table=table,
            query_description=self.query.describe(),
            node_feedback=node_feedback,
            display_order=display_order,
            statistics=statistics,
            relevance_scale=self.config.relevance_scale,
            target_max=self.config.target_max,
            display_capacity=capacity_items,
            extra=extra,
        )
