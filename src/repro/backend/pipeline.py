"""Whole-pipeline offload protocol, shared by every out-of-process backend.

One *pipeline op* runs leaf evaluation, reduced normalization,
combination and fulfilment masks for a whole plan on the workers -- the
``process`` backend's pipe pool or the ``remote`` backend's TCP fleet --
over the table columns the workers already hold (mapped from shared
memory, or streamed once).  The op is a short session of rounds, one per plan
level, because the reduced normalization of every node needs its global
``(d_min, d_max)`` resolved before the node can be normalized (and a
composite combined from its children's normalized columns):

1. ``pipeline_start`` -- workers compute every leaf's signed distances,
   raw distances and exact mask over their shards, writing the columns
   into one coordinator-allocated output block; the reply names only
   the lane's buffer mode.
2. ``pipeline_level`` (once per composite level) -- the coordinator
   resolves the previous level's bounds with one
   :func:`~repro.core.normalization.reduced_bounds` over each node's raw
   column in the block -- the resolver the in-process path runs -- and
   broadcasts them; workers normalize the resolved nodes, reply with
   their per-shard counting rows (summaries) against the resolved
   bounds, and combine this level's composites.
3. ``pipeline_finish`` -- resolves the top level, normalizes and counts
   it.

Column data leaves a worker only through the session's output buffer (a
shared-memory block, or ``pipeline_fetch`` replies on the stream plane);
the round replies are counting rows -- O(nodes x shard count) bytes per
op, independent of the rows per shard.  Every value written or replied is
produced by the exact functions the in-process evaluator runs over the
same bits, so the assembled result is bit-identical to the in-process
cold path.

This module is imported on both sides of the transport and depends only
on NumPy-level machinery (:mod:`repro.core.reduction`,
:mod:`repro.core.normalization`, :mod:`repro.core.combine`) -- never on
the plan/evaluator.  It holds the two halves of the round algebra: the
helpers the one session driver
(:class:`repro.backend.coordinator.Coordinator`) calls between rounds
(:func:`gather_round`, :func:`resolve_level`, :func:`round_message`,
:func:`node_views`), and the :class:`WorkerPipeline` the
one worker op table (:class:`repro.backend.worker.WorkerOps`) runs them
against.  The leaf kernel the session's start round executes is
:func:`leaf_kernel`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

import numpy as np

from repro.core.combine import CombinationRule, combine_columns, combine_masks
from repro.core.normalization import apply_normalization, reduced_bounds
from repro.core.reduction import rank_counts

__all__ = [
    "FIELD_DTYPES",
    "WorkerPipeline",
    "gather_round",
    "leaf_kernel",
    "next_pipeline_token",
    "node_views",
    "pipeline_layout",
    "resolve_level",
    "round_message",
]

#: dtype of every column a worker produces, by field name.
FIELD_DTYPES = {
    "raw": np.float64,
    "normalized": np.float64,
    "mask": np.bool_,
    "signed": np.float64,
}

_TOKEN_SEQ = itertools.count(1)


def next_pipeline_token() -> str:
    """A coordinator-unique token naming one pipeline session."""
    return f"pipeline.{next(_TOKEN_SEQ)}"


def leaf_kernel(predicate, shard, kind: str) -> np.ndarray:
    """One predicate's ``signed`` distances or exact ``mask`` over one shard.

    The only place a backend worker evaluates a predicate.  It makes the
    same two calls, with the same dtype conversions, as the in-process
    evaluator's per-shard leaf pieces
    (:meth:`~repro.core.shard.ShardedPlanEvaluator._signed_distances` and
    ``_exact_mask``), so both produce the same bits.
    """
    if kind == "signed":
        return np.asarray(predicate.signed_distances(shard), dtype=np.float64)
    return np.asarray(predicate.exact_mask(shard), dtype=bool)


def pipeline_layout(nodes: list[dict[str, Any]],
                    rows: int) -> tuple[int, dict[int, dict[str, int]]]:
    """Byte offsets of every node's columns in the shared output block.

    Per node: ``raw`` (f8), ``normalized`` (f8) and ``mask`` (bool);
    leaves additionally get ``signed`` (f8).  Offsets are 8-byte aligned
    so the f8 views are always aligned regardless of the bool columns.
    Both sides derive the layout from the spec, so only block name and
    spec cross the transport.
    """
    offsets: dict[int, dict[str, int]] = {}
    cursor = 0

    def reserve(nbytes: int) -> int:
        nonlocal cursor
        start = cursor
        cursor += (nbytes + 7) & ~7
        return start

    for node in nodes:
        entry = {
            "raw": reserve(rows * 8),
            "normalized": reserve(rows * 8),
            "mask": reserve(rows),
        }
        if node["kind"] == "leaf":
            entry["signed"] = reserve(rows * 8)
        offsets[node["id"]] = entry
    return max(1, cursor), offsets


# --------------------------------------------------------------------------- #
# Coordinator-side round algebra (called by repro.backend.coordinator)
# --------------------------------------------------------------------------- #
def gather_round(replies: list[dict[str, Any]], summaries: dict) -> None:
    """Merge one round's per-worker summaries (disjoint shard subsets)."""
    for reply in replies:
        for node_id, per_shard in reply.get("summaries", {}).items():
            summaries.setdefault(node_id, {}).update(per_shard)


def resolve_level(level_ids: list[int], nodes: dict,
                  read_raw: Callable[[int], np.ndarray]) -> dict:
    """Resolve one level's bounds exactly as the in-process path does.

    One :func:`reduced_bounds` per node over its raw column, handed to us
    by ``read_raw(node_id)``: a view over the session output buffer (zero
    transport bytes on the shared-memory plane, fetched first on the
    stream plane).  The workers count the summaries next round.
    """
    return {node_id: reduced_bounds(read_raw(node_id), nodes[node_id]["keep"])
            for node_id in level_ids}


def round_message(spec: dict, levels: list[list[int]], level_no: int,
                  resolved_msg: dict) -> dict[str, Any]:
    """The ``pipeline_level`` / ``pipeline_finish`` message for one round."""
    finish = level_no == len(levels)
    msg: dict[str, Any] = {
        "op": "pipeline_finish" if finish else "pipeline_level",
        "token": spec["token"],
        "resolved": resolved_msg,
    }
    if not finish:
        msg["combine"] = levels[level_no]
    return msg


def node_views(buf, offs: dict[str, int],
               rows: int) -> dict[str, np.ndarray]:
    """Zero-copy views of one node's columns in a session output buffer."""
    return {
        field: np.ndarray(rows, dtype=FIELD_DTYPES[field], buffer=buf,
                          offset=offset)
        for field, offset in offs.items()
    }


class WorkerPipeline:
    """Worker-side state of one pipeline session.

    Holds the per-node column views over the session's output buffer;
    each round method returns the reply payload (the summaries) for this
    worker's shards.

    ``buf`` is any writable buffer of :func:`pipeline_layout` size: the
    coordinator's shared-memory block when the worker can map it, else
    worker-local bytes the coordinator fetches over the transport.  The
    op table owns the buffer's lifetime; :meth:`close` only drops the
    views so the owner can release it.
    """

    def __init__(self, table, msg: dict[str, Any], buf):
        spec = msg["spec"]
        self.token: str = spec["token"]
        self.rows: int = spec["rows"]
        self.target_max: float = spec["target_max"]
        self.nodes: dict[int, dict[str, Any]] = {
            node["id"]: node for node in spec["nodes"]
        }
        self.table = table
        self.shards: list[tuple[int, int, int]] = [
            (int(i), int(start), int(stop)) for i, start, stop in msg["shards"]
        ]
        _, offsets = pipeline_layout(spec["nodes"], self.rows)
        self.views: dict[int, dict[str, np.ndarray]] = {
            node_id: node_views(buf, offs, self.rows)
            for node_id, offs in offsets.items()
        }

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Leaf kernels over this worker's shards, into the output buffer."""
        for node_id, node in self.nodes.items():
            if node["kind"] != "leaf":
                continue
            predicate = node["predicate"]
            views = self.views[node_id]
            for _, start, stop in self.shards:
                shard = self.table.slice_rows(start, stop)
                signed = leaf_kernel(predicate, shard, "signed")
                views["signed"][start:stop] = signed
                views["raw"][start:stop] = np.abs(signed)
                views["mask"][start:stop] = leaf_kernel(
                    predicate, shard, "mask")

    def level(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Normalize the resolved nodes, combine this level's composites."""
        summaries = self._normalize_round(msg)
        for node_id in msg.get("combine", ()):
            node = self.nodes[node_id]
            rule = CombinationRule[node["rule"]]
            weights = np.asarray(node["weights"], dtype=float)
            children = node["children"]
            views = self.views[node_id]
            for _, start, stop in self.shards:
                columns = [
                    self.views[child]["normalized"][start:stop]
                    for child in children
                ]
                views["raw"][start:stop] = combine_columns(rule, columns, weights)
                views["mask"][start:stop] = combine_masks(rule, [
                    self.views[child]["mask"][start:stop] for child in children])
        return {"summaries": summaries}

    def finish(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Normalize the top level."""
        return {"summaries": self._normalize_round(msg)}

    def close(self) -> None:
        self.views.clear()

    # ------------------------------------------------------------------ #
    def _normalize_round(self, msg: dict[str, Any]) -> dict[int, dict[int, tuple]]:
        """Apply resolved bounds and count every resolved node per shard.

        The counting rows are the same
        :func:`~repro.core.reduction.rank_counts` the in-process
        certificate path runs.
        """
        resolved: dict[int, tuple | None] = msg.get("resolved", {})
        summaries: dict[int, dict[int, tuple]] = {}
        for node_id, bounds in resolved.items():
            d_min, d_max = bounds if bounds is not None else (None, None)
            views = self.views[node_id]
            for shard_no, start, stop in self.shards:
                views["normalized"][start:stop] = apply_normalization(
                    views["raw"][start:stop], d_min, d_max,
                    target_max=self.target_max)
                summaries.setdefault(node_id, {})[shard_no] = rank_counts(
                    views["raw"][start:stop], bounds or ())
        return summaries
