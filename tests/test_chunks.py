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


def test_patch_copies_only_touched_chunks():
    base, column = _column(n=1000, chunk_rows=64)
    rows = np.array([5, 6, 70, 929], dtype=np.intp)  # chunks 0, 1, 14
    values = np.array([1.0, 2.0, 3.0, 4.0])
    patched = column.patch(rows, values)
    assert patched.patched_chunks == 3
    assert patched.shared_chunks == 13
    expected = base.copy()
    expected[rows] = values
    np.testing.assert_array_equal(np.asarray(patched), expected)
    # The original is untouched and clean chunks are aliased, not copied.
    np.testing.assert_array_equal(np.asarray(column), base)
    assert patched._chunks[2] is column._chunks[2]
    assert patched._chunks[0] is not column._chunks[0]


def test_patch_unsorted_rows_with_duplicates():
    base, column = _column(n=300, chunk_rows=32)
    rows = np.array([250, 3, 3, 120], dtype=np.intp)
    values = np.array([9.0, -1.0, -1.0, 0.5])
    patched = column.patch(rows, values)
    expected = base.copy()
    expected[rows] = values
    np.testing.assert_array_equal(np.asarray(patched), expected)


def test_patch_empty_shares_everything():
    _, column = _column()
    patched = column.patch(np.empty(0, dtype=np.intp), np.empty(0))
    assert patched is column


def test_patch_spans_aliases_interior_chunks():
    base, column = _column(n=1000, chunk_rows=64)
    piece = np.linspace(0.0, 1.0, 300)
    start, stop = 100, 400
    patched = column.patch_spans([(start, stop, piece)])
    expected = base.copy()
    expected[start:stop] = piece
    np.testing.assert_array_equal(np.asarray(patched), expected)
    # Chunks 2..5 are fully inside [100, 400): zero-copy views of the piece.
    for k in (2, 3, 4, 5):
        assert np.shares_memory(patched._chunks[k], piece)
    # Edge chunks 1 and 6 are splices; everything else is aliased.
    assert patched._chunks[0] is column._chunks[0]
    assert patched._chunks[7] is column._chunks[7]
    assert patched.patched_chunks == 6
    assert patched.shared_chunks == 10


def test_patch_spans_two_spans_sharing_an_edge_chunk():
    base, column = _column(n=256, chunk_rows=64)
    first = np.full(20, 1.0)
    second = np.full(20, 2.0)
    patched = column.patch_spans([(50, 70, first), (70, 90, second)])
    expected = base.copy()
    expected[50:70] = first
    expected[70:90] = second
    np.testing.assert_array_equal(np.asarray(patched), expected)
    assert patched.patched_chunks == 2  # chunks 0 and 1, each spliced


def test_chained_patches_stay_correct():
    base, column = _column(n=512, chunk_rows=32)
    expected = base.copy()
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows = rng.integers(0, 512, size=rng.integers(1, 40))
        values = rng.uniform(-1.0, 1.0, size=rows.size)
        # Duplicate rows must carry one value each: keep the last write.
        rows, keep = np.unique(rows, return_index=True)
        values = values[keep]
        column = column.patch(rows, values)
        expected[rows] = values
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
    patched = column.patch(np.array([7]), np.array([42.0]))
    assert patched._materialized is None
    idx = np.array([7, 100, 499])
    out = patched[idx]
    assert patched._materialized is None  # gather stayed chunk-grouped
    expected = base.copy()
    expected[7] = 42.0
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
    patched = column.patch(np.array([5, 150]), np.array([True, True]))
    expected = mask.copy()
    expected[[5, 150]] = True
    np.testing.assert_array_equal(np.asarray(patched), expected)
    assert patched.dtype == np.bool_
    assert int(np.count_nonzero(patched[0:64])) == 1


def test_as_chunked_and_as_array_helpers():
    base = np.arange(10.0)
    column = as_chunked(base, _grid(10, 4))
    assert as_chunked(column) is column
    assert isinstance(as_array(column), np.ndarray)
    np.testing.assert_array_equal(as_array(column), base)
    plain = np.arange(3.0)
    assert as_array(plain) is plain


def test_materialize_is_cached_and_frozen():
    _, column = _column(n=100, chunk_rows=16)
    patched = column.patch(np.array([1]), np.array([0.0]))
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


@st.composite
def patch_ops(draw, n):
    """A ``("rows", rows)`` or ``("spans", [(start, stop), ...])`` patch."""
    if draw(st.booleans()):
        return "rows", draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
    cuts = sorted(draw(st.sets(st.integers(0, n), min_size=2, max_size=8)))
    pairs = list(zip(cuts[:-1], cuts[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return "spans", [pair for pair, kept in zip(pairs, keep) if kept]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_patches_on_any_grid_match_an_ndarray_model(data):
    bounds = data.draw(grids())
    n = bounds[-1][1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = rng.uniform(-5.0, 5.0, n)
    column = ChunkedColumn.from_array(model.copy(), bounds)
    for _ in range(data.draw(st.integers(1, 5))):
        kind, where = data.draw(patch_ops(n))
        if kind == "rows":
            rows = np.array(where)
            # Duplicated rows carry one value each, as the contract asks.
            unique, inverse = np.unique(rows, return_inverse=True)
            values = rng.uniform(-5.0, 5.0, unique.size)[inverse]
            column = column.patch(rows, values)
            model[rows] = values
        else:
            spans = [(start, stop, rng.uniform(-5.0, 5.0, stop - start))
                     for start, stop in where]
            column = column.patch_spans(spans)
            for start, stop, piece in spans:
                model[start:stop] = piece
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
    materialized) and a whole-shard span aliases its piece."""
    from repro.core.shard import shard_bounds

    bounds = shard_bounds(10, shards)  # 12 shards: two empty trailing ones
    column = ChunkedColumn.from_array(np.arange(10.0), bounds)
    column = column.patch(np.array([0, 9]), np.array([-1.0, -9.0]))
    start, stop = bounds[-1] if shards < 12 else bounds[9]
    piece = np.full(stop - start, 7.0)
    spliced = column.patch_spans([(start, stop, piece)])
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

    base, column = _column(n=100, chunk_rows=16)
    patched = column.patch(np.array([3, 50]), np.array([1.0, 2.0]))
    bounds = shard_bounds(100, 7)
    rewrapped = as_chunked(patched, bounds)
    assert rewrapped.aligned(bounds) and not patched.aligned(bounds)
    assert as_chunked(rewrapped, bounds) is rewrapped
    base[[3, 50]] = [1.0, 2.0]
    np.testing.assert_array_equal(np.asarray(rewrapped), base)
