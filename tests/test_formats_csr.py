"""Tests for the CSR container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats.csr import CSRMatrix

from helpers import random_csr


def test_from_scipy_round_trip(small_csr):
    dense = small_csr.to_dense()
    again = CSRMatrix.from_dense(dense)
    np.testing.assert_allclose(again.to_dense(), dense)


def test_from_dense_drops_zeros():
    dense = np.array([[0.0, 1.0], [2.0, 0.0]])
    csr = CSRMatrix.from_dense(dense)
    assert csr.nnz == 2
    np.testing.assert_allclose(csr.to_dense(), dense)


def test_from_coo_sums_duplicates():
    rows = np.array([0, 0, 1])
    cols = np.array([1, 1, 0])
    vals = np.array([1.0, 2.0, 3.0])
    csr = CSRMatrix.from_coo(rows, cols, vals, (2, 2))
    assert csr.nnz == 2
    assert csr.to_dense()[0, 1] == pytest.approx(3.0)


def test_from_coo_default_values():
    csr = CSRMatrix.from_coo(np.array([0, 1]), np.array([0, 1]), None, (2, 2))
    np.testing.assert_allclose(csr.data, [1.0, 1.0])


def test_properties(small_csr):
    assert small_csr.n_rows == 40
    assert small_csr.n_cols == 36
    assert small_csr.nnz == small_csr.indices.shape[0]
    assert small_csr.avg_row_length == pytest.approx(small_csr.nnz / 40)
    assert 0 < small_csr.density < 1


def test_validation_rejects_bad_indptr():
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 2]), np.array([0], dtype=np.int32), np.array([1.0]), (2, 2))
    with pytest.raises(ValueError):
        CSRMatrix(np.array([1, 1, 1]), np.zeros(0, np.int32), np.zeros(0), (2, 2))
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 2, 1]), np.array([0, 1], dtype=np.int32), np.ones(2), (2, 2))


@pytest.mark.parametrize("indices", [[0, 0, 1], [1, 0, 1]], ids=["duplicate", "unsorted"])
def test_validation_rejects_non_canonical_rows(indices):
    """A duplicate or out-of-order column in a row is rejected — the
    translation's scatter would otherwise keep one duplicate and lose the
    other; the message names the builders that canonicalise."""
    with pytest.raises(ValueError, match="from_scipy.*from_coo"):
        CSRMatrix([0, 2, 3], indices, [1.0, 2.0, 4.0], (2, 2))


def test_validation_accepts_explicit_zeros_and_a_column_reset_at_each_row():
    csr = CSRMatrix([0, 2, 2, 4], [0, 1, 0, 1], [0.0, 1.0, 2.0, 0.0], (3, 2))
    assert csr.nnz == 4


def test_validation_rejects_out_of_range_column():
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 1]), np.array([5], dtype=np.int32), np.array([1.0]), (1, 2))


def test_memory_footprint_counts_all_arrays(small_csr):
    expected = (small_csr.n_rows + 1) * 4 + small_csr.nnz * 4 + small_csr.nnz * 4
    assert small_csr.memory_footprint_bytes() == expected


def test_with_values(small_csr):
    new_vals = np.arange(small_csr.nnz, dtype=np.float32)
    replaced = small_csr.with_values(new_vals)
    np.testing.assert_array_equal(replaced.data, new_vals)
    np.testing.assert_array_equal(replaced.indices, small_csr.indices)
    with pytest.raises(ValueError):
        small_csr.with_values(np.zeros(small_csr.nnz + 1))


def test_to_scipy_matches(small_csr):
    scipy_matrix = small_csr.to_scipy()
    assert isinstance(scipy_matrix, sp.csr_matrix)
    np.testing.assert_allclose(np.asarray(scipy_matrix.todense()), small_csr.to_dense())


def test_empty_matrix():
    csr = CSRMatrix(np.zeros(5, dtype=np.int64), np.zeros(0, np.int32), np.zeros(0), (4, 3))
    assert csr.nnz == 0
    assert csr.avg_row_length == 0.0
    assert csr.density == 0.0
    assert csr.to_dense().shape == (4, 3)


def test_random_csr_helper_density():
    csr = random_csr(64, 64, 0.1, seed=1)
    assert 0 < csr.nnz <= 64 * 64
