"""Tests for row-window / nonzero-vector partitioning."""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.windows import partition_windows

from helpers import assert_same_partition, random_csr, reference_partition


def _window_columns(part, w: int) -> np.ndarray:
    return part.vector_cols[part.window_ptr[w] : part.window_ptr[w + 1]]


def dense_reference_partition(dense: np.ndarray, vector_size: int):
    """Brute-force reference: nonzero vectors per window from the dense matrix."""
    n_rows, n_cols = dense.shape
    num_windows = -(-n_rows // vector_size)
    vectors = []
    for w in range(num_windows):
        block = dense[w * vector_size : (w + 1) * vector_size]
        cols = np.nonzero((block != 0).any(axis=0))[0]
        vectors.append(cols)
    return vectors


@pytest.mark.parametrize("vector_size", [8, 16])
def test_partition_matches_dense_reference(small_csr, vector_size):
    part = partition_windows(small_csr, vector_size)
    reference = dense_reference_partition(small_csr.to_dense(), vector_size)
    assert part.num_windows == len(reference)
    for w, cols in enumerate(reference):
        np.testing.assert_array_equal(_window_columns(part, w), cols)


@pytest.mark.parametrize("vector_size", [8, 16])
def test_vector_counts_and_zero_fill(medium_csr, vector_size):
    part = partition_windows(medium_csr, vector_size)
    assert part.num_nonzero_vectors == part.vectors_per_window.sum()
    assert part.zero_fill == part.num_nonzero_vectors * vector_size - medium_csr.nnz
    assert part.zero_fill >= 0
    assert part.nnz == medium_csr.nnz


def test_smaller_vector_size_never_increases_zero_fill(medium_csr):
    """The motivation of Table 2: 8x1 stores no more zeros than 16x1."""
    fill8 = partition_windows(medium_csr, 8).zero_fill
    fill16 = partition_windows(medium_csr, 16).zero_fill
    assert fill8 <= fill16


def test_entry_slot_maps_each_nonzero_to_its_slot(small_csr):
    rows = np.repeat(np.arange(small_csr.n_rows), np.diff(small_csr.indptr).astype(int))
    cols = small_csr.indices
    for v in (8, 16):
        part = partition_windows(small_csr, v)
        assert part.entry_slot.dtype == np.int64
        # One slot per entry, so a scatter through the map loses nothing.
        assert np.unique(part.entry_slot).shape == (small_csr.nnz,)
        for e in range(small_csr.nnz):
            vec, lane = divmod(int(part.entry_slot[e]), v)
            # The vector's column is the entry's column, its window holds the
            # entry's row, and the lane is that row's place in the window.
            assert part.vector_cols[vec] == cols[e]
            assert np.searchsorted(part.window_ptr, vec, side="right") - 1 == rows[e] // v
            assert lane == rows[e] % v


def test_tc_block_counts(small_csr):
    part = partition_windows(small_csr, 8)
    for k in (4, 8):
        per_window = part.tc_blocks_per_window(k)
        expected = np.ceil(part.vectors_per_window / k).astype(int)
        np.testing.assert_array_equal(per_window, expected)
        assert part.num_tc_blocks(k) == expected.sum()


def test_padded_vectors(small_csr):
    part = partition_windows(small_csr, 8)
    for k in (4, 8):
        pads = part.padded_vectors(k)
        assert pads == int((part.tc_blocks_per_window(k) * k - part.vectors_per_window).sum())
        assert 0 <= pads <= part.num_tc_blocks(k) * (k - 1)


def test_window_row_range_clips_last_window():
    csr = random_csr(21, 16, 0.2, seed=5)
    part = partition_windows(csr, 8)
    assert part.num_windows == 3
    assert part.window_row_range(0) == (0, 8)
    assert part.window_row_range(2) == (16, 21)


def test_empty_matrix_partition():
    csr = CSRMatrix(np.zeros(9, dtype=np.int64), np.zeros(0, np.int32), np.zeros(0), (8, 8))
    part = partition_windows(csr, 8)
    assert part.num_windows == 1
    assert part.num_nonzero_vectors == 0
    assert part.zero_fill == 0
    assert _window_columns(part, 0).size == 0


def test_invalid_vector_size():
    csr = random_csr(8, 8, 0.5)
    with pytest.raises(ValueError):
        partition_windows(csr, 0)


def test_vector_size_mismatch_in_stats_raises(small_csr):
    from repro.formats.stats import vector_stats

    part = partition_windows(small_csr, 8)
    with pytest.raises(ValueError):
        vector_stats(part, 16)


def test_columns_sorted_within_window(medium_csr):
    part = partition_windows(medium_csr, 8)
    for w in range(part.num_windows):
        cols = _window_columns(part, w)
        assert np.all(np.diff(cols) > 0)


def test_dense_matrix_single_window():
    dense = np.ones((8, 8))
    part = partition_windows(CSRMatrix.from_dense(dense), 8)
    assert part.num_windows == 1
    assert part.num_nonzero_vectors == 8
    assert part.zero_fill == 0


@pytest.mark.parametrize("vector_size", [1, 2])
def test_keys_wider_than_64_bits_match_the_oracle(vector_size):
    """2^20 rows x (2^31 - 1) columns with ~20k entries: window, column and
    entry index need 20 + 31 + 15 > 64 bits, too many to pack into one key."""
    n_rows, n_cols = 2**20, 2**31 - 1
    rng = np.random.default_rng(2026)
    # Entries crowd the first and last rows and share 64 columns, so windows
    # hold several entries per vector; the extreme row and column are in.
    rows = np.concatenate([rng.integers(0, 4096, 20_000), [n_rows - 1] * 4])
    pool = np.concatenate([rng.integers(0, n_cols, 62), [0, n_cols - 1]])
    cols = np.concatenate([pool[rng.integers(0, 64, 20_000)], [0, 5, n_cols - 2, n_cols - 1]])
    key = np.unique(rows * n_cols + cols)
    csr = CSRMatrix.from_coo(key // n_cols, key % n_cols, np.ones(key.size), (n_rows, n_cols))
    part = partition_windows(csr, vector_size)
    assert (part.num_windows * n_cols - 1).bit_length() + (csr.nnz - 1).bit_length() > 64
    assert part.num_nonzero_vectors < csr.nnz or vector_size == 1
    assert_same_partition(part, reference_partition(csr, vector_size))
