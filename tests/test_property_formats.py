"""Property-based tests (hypothesis) for formats and partitioning invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.formats.srbcrs import SRBCRSMatrix
from repro.formats.stats import mma_count_spmm, spmm_data_access_bytes, vector_stats
from repro.formats.windows import partition_windows

from helpers import assert_same_partition, reference_partition


@st.composite
def sparse_matrices(draw, max_rows=96, max_cols=96, max_nnz=400):
    """Random sparse matrices as COO triplets (duplicates allowed, summed)."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    nnz = draw(st.integers(min_value=0, max_value=min(max_nnz, n_rows * n_cols)))
    rows = draw(
        st.lists(st.integers(min_value=0, max_value=n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(min_value=0, max_value=n_cols - 1), min_size=nnz, max_size=nnz)
    )
    values = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False), min_size=nnz, max_size=nnz
        )
    )
    return CSRMatrix.from_coo(np.array(rows), np.array(cols), np.array(values), (n_rows, n_cols))


@settings(max_examples=60, deadline=None)
@given(matrix=sparse_matrices(), vector_size=st.sampled_from([1, 3, 8, 16]))
def test_partition_accounts_for_every_nonzero(matrix, vector_size):
    part = partition_windows(matrix, vector_size)
    assert part.nnz == matrix.nnz
    assert part.num_nonzero_vectors * vector_size >= matrix.nnz
    assert part.zero_fill >= 0
    assert part.window_ptr[-1] == part.num_nonzero_vectors
    assert np.all(np.diff(part.window_ptr) >= 0)
    assert_same_partition(part, reference_partition(matrix, vector_size))


@settings(max_examples=60, deadline=None)
@given(matrix=sparse_matrices())
def test_zero_fill_monotone_in_vector_size(matrix):
    """Smaller vectors never store more zeros — the heart of the paper's argument."""
    s8 = vector_stats(matrix, 8)
    s16 = vector_stats(matrix, 16)
    assert s8.zero_fill <= s16.zero_fill
    # And the number of vectors can only grow when the window shrinks.
    assert s8.num_nonzero_vectors >= s16.num_nonzero_vectors


@settings(max_examples=40, deadline=None)
@given(matrix=sparse_matrices(), precision=st.sampled_from(["fp16", "tf32"]))
def test_mebcrs_round_trip(matrix, precision):
    fmt = MEBCRSMatrix.from_csr(matrix, precision=precision)
    np.testing.assert_allclose(fmt.to_dense(), matrix.to_dense(), rtol=2e-2, atol=2e-2)


@settings(max_examples=40, deadline=None)
@given(matrix=sparse_matrices())
def test_mebcrs_footprint_never_exceeds_srbcrs(matrix):
    """Table 7 invariant, for arbitrary sparsity structure."""
    me = MEBCRSMatrix.from_csr(matrix, precision="fp16")
    sr = SRBCRSMatrix.from_csr(matrix, precision="fp16")
    assert me.memory_footprint_bytes() <= sr.memory_footprint_bytes()
    assert sr.num_padded_vectors >= 0


@settings(max_examples=40, deadline=None)
@given(matrix=sparse_matrices(), n_dense=st.sampled_from([16, 32, 128]))
def test_mma_count_positive_and_monotone_in_n(matrix, n_dense):
    if matrix.nnz == 0:
        return
    m_small = mma_count_spmm(matrix, k=8, n_dense=n_dense, vector_size=8)
    m_large = mma_count_spmm(matrix, k=8, n_dense=2 * n_dense, vector_size=8)
    assert 0 < m_small <= m_large
    assert m_large <= 2 * m_small


@settings(max_examples=40, deadline=None)
@given(matrix=sparse_matrices())
def test_data_access_cost_nonnegative_and_scales_with_precision(matrix):
    if matrix.nnz == 0:
        return
    fp16 = spmm_data_access_bytes(matrix, k=8, n_dense=64, precision="fp16", vector_size=8)
    tf32 = spmm_data_access_bytes(matrix, k=8, n_dense=64, precision="tf32", vector_size=8)
    assert fp16 > 0
    assert tf32 == 2 * fp16


@settings(max_examples=40, deadline=None)
@given(matrix=sparse_matrices())
def test_sgt16_and_mebcrs_store_same_nonzeros(matrix):
    me = MEBCRSMatrix.from_csr(matrix, precision="fp16")
    sgt = SGT16Matrix.from_csr(matrix, precision="tf32")
    assert me.nnz == sgt.nnz == matrix.nnz
    np.testing.assert_allclose(sgt.to_dense(), me.to_dense(), rtol=2e-2, atol=2e-2)


@settings(max_examples=30, deadline=None)
@given(matrix=sparse_matrices(max_rows=48, max_cols=48, max_nnz=150))
def test_csr_round_trip_through_blocked_format(matrix):
    fmt = MEBCRSMatrix.from_csr(matrix, precision="fp32")
    back = fmt.to_csr()
    np.testing.assert_allclose(back.to_dense(), matrix.to_dense(), rtol=1e-5, atol=1e-5)
