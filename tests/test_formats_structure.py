"""Structure reuse: a values-only refresh translates through the cached
window partition, and is bit-identical to a cold translation.

A matrix that keeps its pattern and brings new values (an attention layer's
weights, evaluation after evaluation) shares its pattern's
:class:`~repro.formats.windows.WindowPartition` through the translation
cache's structure entries.  Only the value scatter runs again — and the
value-dependent parts of the format (which lanes are nonzero, the row
offsets that follow them, the quantised lane values) must come out exactly
as a translation from scratch computes them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_csr

from repro.formats.cache import TranslationCache, cached_format, format_kind
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.windows import partition_windows
from repro.kernels.engine import sddmm_batched, spmm_batched
from repro.precision.types import quantize

#: A stored value, an explicit zero, and a value that rounds to zero at fp16.
_VALUES = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32),
    st.just(0.0),
    st.just(1e-8),
)


@st.composite
def patterns_with_new_values(draw, max_rows=40, max_cols=40, max_cells=150):
    """``(source, data)``: a canonical CSR with some rows forced empty, and a
    second value array for the same pattern."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    cells = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n_rows - 1),
                st.integers(min_value=0, max_value=n_cols - 1),
            ),
            max_size=max_cells,
        )
    )
    empty = draw(st.sets(st.integers(min_value=0, max_value=n_rows - 1), max_size=n_rows))
    cells = sorted(cell for cell in cells if cell[0] not in empty)
    nnz = len(cells)
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    cols = np.array([c for _, c in cells], dtype=np.int32)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    old = draw(st.lists(_VALUES, min_size=nnz, max_size=nnz))
    new = draw(st.lists(_VALUES, min_size=nnz, max_size=nnz))
    source = CSRMatrix(indptr, cols, np.array(old, dtype=np.float32), (n_rows, n_cols))
    return source, np.array(new, dtype=np.float32)


@settings(max_examples=60, deadline=None)
@given(
    case=patterns_with_new_values(),
    vector_size=st.sampled_from([8, 16]),
    precision=st.sampled_from(["fp16", "tf32"]),
)
def test_values_only_refresh_matches_a_cold_translation(case, vector_size, precision):
    source, data = case
    cache = TranslationCache()
    cached_format(source, vector_size, precision, by_content=True, cache=cache)
    refreshed = source.with_values(data)
    warm = cached_format(refreshed, vector_size, precision, by_content=True, cache=cache)
    stats = cache.stats()
    if refreshed.content_key() == source.content_key():
        assert stats.content_hits == 1  # the same values: one shared translation
    else:
        assert (stats.misses, stats.structure_hits) == (2, 1)
    assert warm.partition is cached_format(source, vector_size, precision, cache=cache).partition
    # The oracle shares nothing with the cache: fresh arrays, fresh partition.
    cold = format_kind(vector_size).format_cls.from_csr(
        CSRMatrix(source.indptr.copy(), source.indices.copy(), data.copy(), source.shape),
        precision=precision,
    )
    assert warm.k == cold.k
    np.testing.assert_array_equal(warm.vector_values, cold.vector_values)
    assert warm.vector_values.dtype == cold.vector_values.dtype
    warm_lanes, cold_lanes = warm.lanes_as_csr(), cold.lanes_as_csr()
    for name in ("row_offsets", "columns", "values", "slot"):
        np.testing.assert_array_equal(getattr(warm_lanes, name), getattr(cold_lanes, name))
    np.testing.assert_array_equal(
        warm.quantized_lane_values(precision), cold.quantized_lane_values(precision)
    )

    rng = np.random.default_rng(source.nnz)
    n_rows, n_cols = source.shape
    b_q = quantize(rng.standard_normal((n_cols, 5)).astype(np.float32), precision)
    np.testing.assert_array_equal(
        spmm_batched(warm, b_q, precision), spmm_batched(cold, b_q, precision)
    )
    a_q = quantize(rng.standard_normal((n_rows, 4)).astype(np.float32), precision)
    c_q = quantize(rng.standard_normal((n_cols, 4)).astype(np.float32), precision)
    for scale_by_mask in (False, True):
        np.testing.assert_array_equal(
            sddmm_batched(warm, a_q, c_q, scale_by_mask),
            sddmm_batched(cold, a_q, c_q, scale_by_mask),
        )


def test_a_partition_of_another_matrix_is_refused():
    eye = np.eye(16, 12)
    csr = CSRMatrix.from_dense(eye)
    fewer = eye.copy()
    fewer[0, 0] = 0.0
    others = {
        "shape": partition_windows(CSRMatrix.from_dense(np.eye(16, 13)), 8),
        "nnz": partition_windows(CSRMatrix.from_dense(fewer), 8),
        "vector size": partition_windows(csr, 16),
    }
    for partition in others.values():
        with pytest.raises(ValueError, match="does not match"):
            MEBCRSMatrix.from_csr(csr, precision="fp16", partition=partition)
    # Its own partition is accepted, and gives the cold translation.
    own = MEBCRSMatrix.from_csr(csr, precision="fp16", partition=partition_windows(csr, 8))
    np.testing.assert_array_equal(
        own.vector_values, MEBCRSMatrix.from_csr(csr, precision="fp16").vector_values
    )


def test_structure_entries_are_shared_across_precisions_not_vector_sizes():
    csr = random_csr(48, 40, 0.1, seed=12)
    cache = TranslationCache()
    fp16 = cached_format(csr, 8, "fp16", by_content=True, cache=cache)
    tf32 = cached_format(csr, 8, "tf32", by_content=True, cache=cache)
    sgt = cached_format(csr, 16, "fp16", by_content=True, cache=cache)
    assert fp16.partition is tf32.partition
    assert sgt.partition is not fp16.partition
    stats = cache.stats()
    assert (stats.misses, stats.structure_hits) == (3, 1)
    # Identity-only lookups never create or read structure entries.
    other = TranslationCache()
    cached_format(csr, 8, "fp16", cache=other)
    cached_format(csr.with_values(csr.data * 2), 8, "fp16", cache=other)
    assert other.stats().structure_hits == 0
    assert len(other) == 2
