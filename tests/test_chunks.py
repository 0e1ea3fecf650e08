"""Unit tests for the chunked copy-on-write column layer."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.chunks import ChunkedColumn, as_array, as_chunked


def _grid(n, rows):
    """A uniform grid of ``rows``-row chunks (the last one shorter)."""
    return [(i, min(i + rows, n)) for i in range(0, n, rows)]


def _column(n=1000, chunk_rows=64, seed=3):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-5.0, 5.0, n)
    return base.copy(), ChunkedColumn.from_array(base, _grid(n, chunk_rows))


def test_from_array_roundtrip_and_lengths():
    base, column = _column(n=1000, chunk_rows=64)
    assert len(column) == 1000
    assert column.chunk_count == 16  # ceil(1000 / 64)
    assert column.dtype == np.float64
    assert column.shape == (1000,)
    np.testing.assert_array_equal(np.asarray(column), base)
    # from_array is zero-copy: materialize returns the (frozen) original.
    assert column.materialize() is not None
    assert not column.materialize().flags.writeable


def _pieces(column, chunks, seed=5):
    """Fresh values for each of ``chunks``, one piece per chunk."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-5.0, 5.0, len(column._chunks[k])) for k in chunks]


def test_patch_copies_only_touched_chunks():
    """Whole-chunk replacement: the named chunks become their pieces (no
    copy), every other chunk is aliased, and the original is untouched."""
    base, column = _column(n=1000, chunk_rows=64)
    chunks = [14, 0, 1]  # any order
    pieces = _pieces(column, chunks)
    patched = column.replaced(chunks, pieces)
    assert patched.patched_chunks == 3
    assert patched.shared_chunks == 13
    expected = base.copy()
    for k, piece in zip(chunks, pieces):
        expected[64 * k:64 * k + len(piece)] = piece
    np.testing.assert_array_equal(np.asarray(patched), expected)
    np.testing.assert_array_equal(np.asarray(column), base)
    assert patched._chunks[2] is column._chunks[2]
    assert patched._chunks[0] is not column._chunks[0]


def test_patch_empty_shares_everything():
    _, column = _column()
    patched = column.replaced([], [])
    assert patched._chunks == column._chunks
    assert (patched.patched_chunks, patched.shared_chunks) == (0, column.chunk_count)


def test_patch_spans_aliases_interior_chunks():
    """A replacement piece is frozen and becomes its chunk as it is."""
    _, column = _column(n=1000, chunk_rows=64)
    pieces = _pieces(column, [2, 3, 4, 5])
    patched = column.replaced([2, 3, 4, 5], pieces)
    for k, piece in zip((2, 3, 4, 5), pieces):
        assert patched._chunks[k] is piece
        assert not piece.flags.writeable
    assert patched._chunks[1] is column._chunks[1]
    assert patched.patched_chunks == 4
    assert patched.shared_chunks == 12


@pytest.mark.parametrize("delta", [-1, 1])
def test_replaced_rejects_a_piece_of_the_wrong_length(delta):
    _, column = _column(n=100, chunk_rows=16)
    with pytest.raises(ValueError, match="holds 16 rows"):
        column.replaced([1], [np.zeros(16 + delta)])


def test_chained_patches_stay_correct():
    base, column = _column(n=512, chunk_rows=32)
    expected = base.copy()
    rng = np.random.default_rng(11)
    for _ in range(25):
        chunks = rng.choice(16, size=rng.integers(1, 5), replace=False)
        pieces = [rng.uniform(-1.0, 1.0, 32) for _ in chunks]
        column = column.replaced(chunks, pieces)
        for k, piece in zip(chunks, pieces):
            expected[32 * k:32 * k + 32] = piece
        np.testing.assert_array_equal(np.asarray(column), expected)


def test_getitem_int_slice_and_fancy():
    base, column = _column(n=500, chunk_rows=64)
    assert column[3] == base[3]
    assert column[-1] == base[-1]
    np.testing.assert_array_equal(column[10:20], base[10:20])       # one chunk
    np.testing.assert_array_equal(column[10:300], base[10:300])     # many chunks
    np.testing.assert_array_equal(column[::2], base[::2])           # strided
    idx = np.array([499, 0, 250, 0, 63, 64])
    np.testing.assert_array_equal(column[idx], base[idx])           # unsorted fancy
    ascending = np.array([1, 5, 200, 499])
    np.testing.assert_array_equal(column[ascending], base[ascending])
    mask = base > 0
    np.testing.assert_array_equal(column[mask], base[mask])


def test_fancy_gather_does_not_materialize():
    base, column = _column(n=500, chunk_rows=64)
    piece = np.arange(64.0)
    patched = column.replaced([0], [piece])
    assert patched._materialized is None
    idx = np.array([7, 100, 499])
    out = patched[idx]
    assert patched._materialized is None  # gather stayed chunk-grouped
    expected = base.copy()
    expected[:64] = piece
    np.testing.assert_array_equal(out, expected[idx])


def test_setitem_raises_read_only():
    _, column = _column()
    with pytest.raises(ValueError, match="read-only"):
        column[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        column[3:5] = 0.0


def test_ndarray_attribute_delegation():
    base, column = _column(n=200, chunk_rows=32)
    assert column.sum() == pytest.approx(base.sum())
    assert column.min() == base.min()
    assert not column.flags.writeable
    with pytest.raises(AttributeError):
        column.__deepcopy__  # private/dunder names never delegate


def test_bool_dtype_column():
    mask = np.zeros(200, dtype=bool)
    column = ChunkedColumn.from_array(mask, _grid(200, 64))
    pieces = [np.arange(64) == 5, np.arange(64) == 22]
    patched = column.replaced([0, 2], pieces)
    expected = mask.copy()
    expected[[5, 150]] = True
    np.testing.assert_array_equal(np.asarray(patched), expected)
    assert patched.dtype == np.bool_
    assert int(np.count_nonzero(patched[0:64])) == 1


def test_as_chunked_and_as_array_helpers():
    base = np.arange(10.0)
    grid = _grid(10, 4)
    column = as_chunked(base, grid)
    assert as_chunked(column, grid) is column
    assert isinstance(as_array(column), np.ndarray)
    np.testing.assert_array_equal(as_array(column), base)
    plain = np.arange(3.0)
    assert as_array(plain) is plain


def test_materialize_is_cached_and_frozen():
    _, column = _column(n=100, chunk_rows=16)
    patched = column.replaced([0], [np.zeros(16)])
    first = patched.materialize()
    assert patched.materialize() is first
    assert not first.flags.writeable


def test_empty_column():
    column = ChunkedColumn.from_array(np.empty(0), [])
    assert len(column) == 0
    assert column.chunk_count == 0
    np.testing.assert_array_equal(np.asarray(column), np.empty(0))
    np.testing.assert_array_equal(column[0:0], np.empty(0))


# --------------------------------------------------------------------------- #
# Property: any grid, any patch sequence, against a plain-ndarray model
# --------------------------------------------------------------------------- #
@st.composite
def grids(draw):
    """Contiguous chunk bounds: uneven sizes, empty chunks (trailing ones,
    as ``shard_bounds`` makes when there are more shards than rows), or a
    single chunk."""
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    sizes += [0] * draw(st.integers(0, 3))
    assume(sum(sizes) > 0)
    stops = np.cumsum(sizes).tolist()
    return list(zip([0] + stops[:-1], stops))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_patches_on_any_grid_match_an_ndarray_model(data):
    bounds = data.draw(grids())
    n = bounds[-1][1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = rng.uniform(-5.0, 5.0, n)
    column = ChunkedColumn.from_array(model.copy(), bounds)
    for _ in range(data.draw(st.integers(1, 5))):
        chunks = sorted(data.draw(st.sets(st.integers(0, len(bounds) - 1))))
        pieces = [rng.uniform(-5.0, 5.0, bounds[k][1] - bounds[k][0])
                  for k in chunks]
        column = column.replaced(chunks, pieces)
        for k, piece in zip(chunks, pieces):
            model[bounds[k][0]:bounds[k][1]] = piece
        # Reads before materializing: chunk slices, any slice, a gather.
        for start, stop in bounds:
            np.testing.assert_array_equal(column[start:stop], model[start:stop])
        start, stop = sorted(data.draw(st.lists(
            st.integers(0, n), min_size=2, max_size=2)))
        np.testing.assert_array_equal(column[start:stop], model[start:stop])
        index = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=10)),
                         dtype=np.intp)
        np.testing.assert_array_equal(column[index], model[index])
        for row in index[:2]:
            assert column[int(row)] == model[row]
    np.testing.assert_array_equal(column.materialize(), model)


@pytest.mark.parametrize("shards", [1, 3, 7, 12])
def test_shard_slices_of_a_patched_column_are_views(shards):
    """On the shard grid a shard slice is its chunk (no copy, nothing
    materialized) and a replaced shard's slice is its piece."""
    from repro.core.shard import shard_bounds

    bounds = shard_bounds(10, shards)  # 12 shards: two empty trailing ones
    column = ChunkedColumn.from_array(np.arange(10.0), bounds)
    column = column.replaced([0], [np.full(bounds[0][1], -1.0)])
    last = shards - 1 if shards < 12 else 9
    start, stop = bounds[last]
    piece = np.full(stop - start, 7.0)
    spliced = column.replaced([last], [piece])
    assert np.shares_memory(spliced[start:stop], piece)
    for k, (lo, hi) in enumerate(bounds):
        if hi > lo:
            assert np.shares_memory(column[lo:hi], column._chunks[k])
            assert np.shares_memory(spliced[lo:hi], spliced._chunks[k])
    assert column._materialized is None and spliced._materialized is None
    assert spliced.patched_chunks == 1
    assert spliced.shared_chunks == shards - 1


def test_as_chunked_rewraps_a_foreign_grid():
    """A column chunked on another grid (another shard count) comes back on
    the requested one, with the same values; an aligned one is itself."""
    from repro.core.shard import shard_bounds

    base = np.arange(100.0)
    column = ChunkedColumn.from_array(base.copy(), shard_bounds(100, 16))
    patched = column.replaced([0, 8], [np.full(7, -1.0), np.full(6, -2.0)])
    # 16 shards of 100 rows: four of 7 rows, then twelve of 6.
    assert patched._materialized is None
    bounds = shard_bounds(100, 7)
    rewrapped = as_chunked(patched, bounds)
    assert rewrapped.aligned(bounds) and not patched.aligned(bounds)
    assert as_chunked(rewrapped, bounds) is rewrapped
    base[0:7] = -1.0
    base[52:58] = -2.0
    np.testing.assert_array_equal(np.asarray(rewrapped), base)
