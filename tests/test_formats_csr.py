"""Tests for the CSR container."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.formats.csr as csr_module
from repro import spmm
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


@pytest.mark.parametrize(
    "data",
    [
        np.ones((3, 3)),
        np.array([1 + 2j, 3, 4]),
        np.array(["a", "b", "c"]),
        np.array([1.0, None, 2.0], dtype=object),
        np.float64(1.0),
    ],
    ids=["2-D", "complex", "strings", "object", "0-D"],
)
def test_validation_rejects_data_it_cannot_translate(data):
    """``data`` is 1-D real numbers: a ``(nnz, 3)`` array used to fail late
    in the translation's scatter with a broadcast error, and complex values
    lost their imaginary part with only a ``ComplexWarning``."""
    with pytest.raises(ValueError, match="data must be a 1-D array of real numbers"):
        CSRMatrix([0, 2, 3], [0, 1, 1], data, (2, 2))


def test_complex_data_is_refused_before_spmm_can_drop_the_imaginary_part():
    with pytest.raises(ValueError, match="real numbers"):
        spmm(CSRMatrix([0, 1, 2], [0, 1], [1 + 2j, 3], (2, 2)), np.eye(2, dtype=np.float32))


@pytest.mark.parametrize("dtype", [np.bool_, np.int8, np.uint16, np.int64, np.float16, np.float64])
def test_validation_accepts_real_numeric_data(dtype):
    csr = CSRMatrix([0, 2, 3], [0, 1, 1], np.array([1, 0, 1], dtype=dtype), (2, 2))
    out = spmm(csr, np.eye(2, dtype=np.float32)).values
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])


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


def test_with_values_shares_the_pattern_and_inherits_the_structure_key(small_csr, monkeypatch):
    replaced = small_csr.with_values(np.arange(small_csr.nnz, dtype=np.float32))
    assert np.shares_memory(replaced.indptr, small_csr.indptr)
    assert np.shares_memory(replaced.indices, small_csr.indices)
    # The copy's content key hashes its data alone: one digest, over the
    # inherited structure key and the new values — no index array.
    hashed = []

    def spy(*chunks):
        hashed.append(chunks)
        return real(*chunks)

    real = csr_module.digest16
    monkeypatch.setattr(csr_module, "digest16", spy)
    assert replaced.structure_key() == small_csr.structure_key()
    key = replaced.content_key()
    assert len(hashed) == 1
    assert not any(chunk is replaced.indices for chunk in hashed[0])
    monkeypatch.undo()
    # A cold build of the same arrays reaches the same two digests.
    twin = CSRMatrix(
        small_csr.indptr.copy(), small_csr.indices.copy(), replaced.data.copy(), small_csr.shape
    )
    assert twin.structure_key() == replaced.structure_key()
    assert twin.content_key() == key != small_csr.content_key()


def test_structure_key_ignores_values_and_keeps_shape():
    csr = CSRMatrix([0, 1, 2], [0, 1], [1.0, 2.0], (2, 2))
    assert CSRMatrix([0, 1, 2], [0, 1], [5.0, 0.0], (2, 2)).structure_key() == csr.structure_key()
    assert CSRMatrix([0, 1, 2], [0, 1], [1.0, 2.0], (2, 3)).structure_key() != csr.structure_key()
    assert CSRMatrix([0, 1, 2], [0, 0], [1.0, 2.0], (2, 2)).structure_key() != csr.structure_key()
    # The content key covers the value dtype, not only the value bytes' pattern.
    as_f64 = CSRMatrix([0, 1, 2], [0, 1], np.array([1.0, 2.0]), (2, 2))
    as_f32 = CSRMatrix([0, 1, 2], [0, 1], np.array([1.0, 2.0], np.float32), (2, 2))
    assert as_f64.content_key() != as_f32.content_key()


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
