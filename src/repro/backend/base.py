"""The :class:`ExecBackend` contract: a backend owns *where* shard work runs.

The sharded evaluator (:class:`~repro.core.shard.ShardedPlanEvaluator`)
keeps every decision that affects *what* is computed -- fingerprints,
dirty-shard tracking, certificate short-circuits, bounds resolution, merge
order -- on the coordinator.  A backend is offered one thing, the plan of
a site that has to compute every shard anyway (:meth:`ExecBackend.
shard_pipeline`), and it answers in one of two ways:

* return every node's assembled columns (computed wherever it likes), or
* return ``None``, meaning "compute it in-process" -- the evaluator then
  runs the exact same per-shard code it always ran, on the shared thread
  pool the engine hands it whatever the backend.

``None`` doubles as the fault path: a backend that loses a worker, hits a
timeout or cannot pickle a predicate simply declines the operation, counts
the incident in :meth:`stats`, and the event completes on the in-process
cold path -- the same degrade-to-correct philosophy the dirty-shard
certificates use.  Because every answer a backend *does* give must be
bit-identical to the in-process computation (same function over the same
bits), the differential suite in ``tests/test_differential.py`` runs
parameterized over every registered backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.shard import ShardedTable

__all__ = ["ExecBackend"]


class ExecBackend:
    """Base class (and no-op default) for shard-execution backends.

    Four hooks: :meth:`prepare`, :meth:`shard_pipeline`, :meth:`close`
    and :meth:`stats`; everything left at the default keeps the
    evaluator's in-process behaviour.  One instance is created per
    :class:`~repro.core.engine.QueryEngine` (registry factories are
    called per engine), so counters in :meth:`stats` are engine-scoped
    even when the heavy machinery behind them (worker processes, fleet
    connections) is shared process-wide.
    """

    #: Registry name; set by subclasses.
    name: str = "?"

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def prepare(self, sharded: "ShardedTable") -> None:
        """Called once per execute, before evaluation, with the sharded table.

        Backends that publish table columns out-of-process do so here
        (idempotently -- the same table must not be re-published on every
        event).
        """

    def close(self) -> None:
        """Release backend resources (idempotent).

        Called from :meth:`QueryEngine.close` and from the interpreter
        ``atexit`` hook; must never hang on live work.
        """

    # ------------------------------------------------------------------ #
    # The one execution hook
    # ------------------------------------------------------------------ #
    def shard_pipeline(self, sharded: "ShardedTable",
                       spec: dict) -> dict | None:
        """Run a whole plan's per-shard pipeline out-of-process, or None.

        ``spec`` is the picklable plan description built by
        :meth:`ShardedPlanEvaluator._pipeline_spec`: post-order node
        entries (leaf predicates / composite rules + weights), the
        level grouping and each node's ``keep`` count.  A backend that
        accepts must run leaf -> normalization -> combination -> mask for
        every shard span and reply *no column data* over its control
        channel -- only per-shard summaries -- returning per node id the
        assembled full-table ``raw`` / ``normalized`` / ``mask``
        (+ ``signed`` for leaves) columns, the resolved bounds and the
        summary matrix.  The columns may be views of one buffer the backend
        hands over; the evaluator freezes them and never writes them.
        Every array must be bit-identical to the in-process cold
        computation; ``None`` (any fault, nowhere to offload to) keeps
        the evaluator on its in-process path, and says why as
        ``backend_fault`` on the ambient ``pipeline.offload`` span.
        """
        obs.annotate(backend_fault="not-offloadable")
        return None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        """Engine-scoped counters; keys shared by every backend.

        ``pipeline_ops`` counts :meth:`shard_pipeline` calls answered by
        the backend, ``pipeline_fallbacks`` calls declined after a failure
        (crash, timeout, unpicklable work), ``worker_restarts`` the
        transport faults among them (an endpoint marked down, a local
        worker killed).  ``offloaded_ops`` / ``fallbacks`` are the
        same two counters under their older names (there is one op, so
        each pair always reads equal), and ``reply_bytes`` totals the bytes
        that came back over the control channel for accepted pipeline ops
        (the quantity the no-column-data reply contract keeps independent
        of rows per shard); ``column_bytes`` totals result columns that had to
        ride replies because a worker could not map the output block.
        Gauges (``worker_count``, ``workers_alive``, ``published_tables``,
        ``published_bytes``) describe shared infrastructure and are
        reported as current values, not deltas.  The out-of-process
        backends build this dict in one place
        (:meth:`repro.backend.coordinator.Coordinator.stats`); the full
        table is in ``docs/backends.md``.
        """
        return {
            "offloaded_ops": 0,
            "fallbacks": 0,
            "worker_restarts": 0,
            "traffic_bytes": 0,
            "pipeline_ops": 0,
            "pipeline_fallbacks": 0,
            "reply_bytes": 0,
            "column_bytes": 0,
            "published_tables": 0,
            "published_bytes": 0,
            "worker_count": 0,
            "workers_alive": 0,
        }
