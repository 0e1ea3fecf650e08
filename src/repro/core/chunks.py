"""Chunked copy-on-write columns for the incremental hot path.

The evaluation caches share frozen (read-only) column arrays across
executions, snapshots and sessions, so a patched column used to be a
fresh O(n) array assembled from reused clean slices plus recomputed
dirty ones -- the "O(n) memcpy floor" named in the roadmap.  A
:class:`ChunkedColumn` removes that floor: the column is a sequence of
read-only chunks, one per shard, and a patch produces a *new* column
that replaces the dirty shards' chunks while aliasing every clean chunk
from the previous column.  The frozen-array contract survives because
chunks, not whole columns, stay read-only; consumers that need a
contiguous ndarray go through the lazy, cached
:meth:`ChunkedColumn.materialize` seam (or ``np.asarray``, which routes
through ``__array__``).

Design points that matter for bit-identity and safety:

* the chunk grid is fixed at construction as explicit ``(start, stop)``
  row ranges.  The sharded evaluator wraps every column on its shard
  bounds (:func:`~repro.core.shard.shard_bounds`, uneven sizes and
  empty trailing shards included), so one chunk is one shard: a shard
  slice is a zero-copy view of its chunk.  Patches of patches keep the
  grid and never re-split data;
* a slice that crosses chunks only happens on a foreign grid (a column
  built under another shard count, served from the node cache) and
  reads :meth:`materialize` instead; :func:`as_chunked` re-wraps such a
  column on the requested grid, so the next patch is aligned again;
* :meth:`replaced` swaps whole chunks: each recomputed shard piece is
  frozen and *becomes* its chunk, so patching a dirty shard copies
  nothing, and a piece whose length differs from its chunk is refused;
* ``__setitem__`` raises the same ``read-only`` ``ValueError`` a frozen
  ndarray raises, and unknown attributes delegate to the materialized
  array, so most ndarray consumers work unchanged -- but hot-path code
  must *not* touch attributes like ``.flags`` on a chunked column (that
  would silently materialize); the evaluator guards those sites with
  ``isinstance`` checks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ChunkedColumn",
    "as_array",
    "as_chunked",
]

def _freeze(array: np.ndarray) -> np.ndarray:
    if array.flags.writeable:
        array.flags.writeable = False
    return array


def _offsets(bounds, n: int) -> np.ndarray:
    """Chunk start rows plus ``n``, from contiguous ``(start, stop)`` ranges."""
    grid = np.asarray(bounds, dtype=np.intp).reshape(-1, 2)
    offsets = np.concatenate(([0], grid[:, 1])).astype(np.intp)
    if (offsets[-1] != n or np.any(grid[:, 0] != offsets[:-1])
            or np.any(grid[:, 1] < grid[:, 0])):
        raise ValueError("chunk bounds must be contiguous ranges covering the column")
    return offsets


class ChunkedColumn:
    """An immutable column stored as read-only chunks on a fixed row grid.

    ``offsets`` holds each chunk's first row followed by the column
    length; chunks may be empty.  Instances are value-immutable: every
    mutating operation returns a new column sharing the untouched
    chunks.  ``patched_chunks`` / ``shared_chunks`` describe how the
    instance was built -- chunks replaced by new data vs aliased from
    the previous column, both zero for a column built from a whole array
    -- and feed the ``chunks_patched`` / ``chunks_shared`` counters.
    """

    __slots__ = ("_chunks", "_offsets", "_grid", "_dtype", "_materialized",
                 "patched_chunks", "shared_chunks")

    def __init__(self, chunks: tuple[np.ndarray, ...], offsets: np.ndarray,
                 grid, dtype, materialized: np.ndarray | None = None,
                 patched: int = 0, shared: int = 0):
        self._chunks = chunks
        self._offsets = offsets
        #: The ``bounds`` object the grid was built from: :meth:`aligned`
        #: answers by identity for the evaluator's own shard bounds.
        self._grid = grid
        self._dtype = np.dtype(dtype)
        self._materialized = materialized
        self.patched_chunks = patched
        self.shared_chunks = shared

    # ------------------------------------------------------------------ #
    @classmethod
    def from_array(cls, array, bounds) -> "ChunkedColumn":
        """Wrap a 1-D array as zero-copy chunk views (freezing the array).

        ``bounds`` are contiguous ``(start, stop)`` row ranges covering
        the array, one per chunk (the shard bounds).
        """
        array = np.asarray(array)
        if array.ndim != 1:
            raise ValueError("ChunkedColumn wraps 1-D columns only")
        offsets = _offsets(bounds, len(array))
        _freeze(array)
        chunks = tuple(array[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
        return cls(chunks, offsets, bounds, array.dtype, materialized=array)

    def aligned(self, bounds) -> bool:
        """Whether the chunk grid is exactly ``bounds``."""
        return bounds is self._grid or np.array_equal(
            self._offsets, _offsets(bounds, len(self)))

    def _chunk_of(self, rows):
        """Index of the non-empty chunk holding each row."""
        return np.searchsorted(self._offsets, rows, side="right") - 1

    # ------------------------------------------------------------------ #
    def replaced(self, chunks, pieces) -> "ChunkedColumn":
        """A new column with chunk ``chunks[j]`` replaced by ``pieces[j]``.

        ``chunks`` are distinct chunk indices.  Each piece is frozen and
        becomes its chunk as it is (no copy); every other chunk is shared
        with this column.
        """
        out = list(self._chunks)
        for k, piece in zip(chunks, pieces):
            if len(piece) != len(out[k]):
                raise ValueError(f"chunk {k} holds {len(out[k])} rows, "
                                 f"its replacement {len(piece)}")
            out[k] = _freeze(piece)
        return ChunkedColumn(tuple(out), self._offsets, self._grid, self._dtype,
                             patched=len(chunks), shared=len(out) - len(chunks))

    # ------------------------------------------------------------------ #
    def materialize(self) -> np.ndarray:
        """The contiguous frozen ndarray view of this column (cached)."""
        out = self._materialized
        if out is None:
            out = np.empty(len(self), dtype=self._dtype)
            for k, chunk in enumerate(self._chunks):
                out[self._offsets[k]:self._offsets[k + 1]] = chunk
            self._materialized = _freeze(out)
        return out

    # ------------------------------------------------------------------ #
    @property
    def dtype(self):
        return self._dtype

    @property
    def shape(self) -> tuple[int]:
        return (len(self),)

    @property
    def size(self) -> int:
        return len(self)

    @property
    def ndim(self) -> int:
        return 1

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    def __len__(self) -> int:
        return int(self._offsets[-1])

    def __array__(self, dtype=None, copy=None):
        out = self.materialize()
        if dtype is not None and np.dtype(dtype) != out.dtype:
            return out.astype(dtype)
        if copy:
            return out.copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChunkedColumn(n={len(self)}, chunks={len(self._chunks)}, "
                f"dtype={self._dtype})")

    # ------------------------------------------------------------------ #
    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += len(self)
            if not 0 <= index < len(self):
                raise IndexError("index out of range")
            k = self._chunk_of(index)
            return self._chunks[k][index - self._offsets[k]]
        if isinstance(key, slice):
            return self._slice(key)
        index = np.asarray(key)
        if index.dtype == np.bool_:
            return self.materialize()[index]
        return self._gather(index)

    def _slice(self, key: slice) -> np.ndarray:
        """A contiguous slice: a zero-copy view when it lies in one chunk."""
        start, stop, step = key.indices(len(self))
        if step == 1 and self._materialized is None:
            if stop <= start:
                return _freeze(np.empty(0, dtype=self._dtype))
            k = self._chunk_of(start)
            if stop <= self._offsets[k + 1]:
                base = self._offsets[k]
                return self._chunks[k][start - base:stop - base]
        return self.materialize()[key]

    def _gather(self, index: np.ndarray) -> np.ndarray:
        """Fancy integer gather grouped by chunk -- never materializes."""
        index = index.astype(np.intp, copy=False)
        if index.ndim != 1 or self._materialized is not None:
            return self.materialize()[index]
        if index.size == 0:
            return np.empty(0, dtype=self._dtype)
        order = None
        ordered = index
        if index.size > 1 and np.any(np.diff(index) < 0):
            order = np.argsort(index, kind="stable")
            ordered = index[order]
        if ordered[0] < 0 or ordered[-1] >= len(self):
            # Negative (or out-of-range) indices: let numpy's own fancy
            # indexing semantics and errors apply.
            return self.materialize()[index]
        cuts = np.searchsorted(ordered, self._offsets)
        gathered = np.empty(ordered.size, dtype=self._dtype)
        for k in np.flatnonzero(np.diff(cuts)):
            lo, hi = cuts[k], cuts[k + 1]
            gathered[lo:hi] = self._chunks[k][ordered[lo:hi] - self._offsets[k]]
        if order is None:
            return gathered
        out = np.empty_like(gathered)
        out[order] = gathered
        return out

    def __setitem__(self, key, value):
        raise ValueError("assignment destination is read-only")

    def __getattr__(self, name):
        # Unknown *public* ndarray attributes (.sum, .min, .tolist, ...)
        # delegate to the materialized array.  Dunder/private names raise so
        # protocols (pickle, copy) never silently degrade to an ndarray.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)


def as_chunked(column, bounds) -> ChunkedColumn:
    """``column`` as a :class:`ChunkedColumn` on the ``bounds`` grid.

    Zero-copy for an ndarray, or for a chunked column already on that
    grid; a column on a foreign grid is re-wrapped from its (cached)
    materialized form.
    """
    if isinstance(column, ChunkedColumn):
        if column.aligned(bounds):
            return column
        column = column.materialize()
    return ChunkedColumn.from_array(column, bounds)


def as_array(column) -> np.ndarray:
    """``column`` as a contiguous ndarray (zero-cost for plain ndarrays)."""
    if isinstance(column, ChunkedColumn):
        return column.materialize()
    return column
