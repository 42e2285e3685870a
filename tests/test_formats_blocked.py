"""Tests for the generic blocked nonzero-vector format and ME-BCRS / SR-BCRS / SGT."""

import numpy as np
import pytest

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import FLASH_VECTOR_SIZE, MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix, SGT_VECTOR_SIZE
from repro.formats.srbcrs import SRBCRSMatrix, footprint_reduction
from repro.gpu.mma import FLASH_SHAPES
from repro.precision.types import Precision

from helpers import random_csr


# ---------------------------------------------------------------------------
# Generic blocked format
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("vector_size,k", [(8, 8), (8, 4), (16, 8)])
def test_blocked_round_trip_to_dense(small_csr, vector_size, k):
    fmt = BlockedVectorFormat.from_csr(small_csr, vector_size=vector_size, k=k)
    np.testing.assert_allclose(fmt.to_dense(), small_csr.to_dense(), rtol=1e-6)


@pytest.mark.parametrize("vector_size,k", [(8, 8), (16, 8)])
def test_blocked_round_trip_to_csr(medium_csr, vector_size, k):
    fmt = BlockedVectorFormat.from_csr(medium_csr, vector_size=vector_size, k=k)
    back = fmt.to_csr()
    np.testing.assert_allclose(back.to_dense(), medium_csr.to_dense(), rtol=1e-6)
    assert back.nnz == medium_csr.nnz


def test_block_values_and_columns_consistent(small_csr):
    fmt = BlockedVectorFormat.from_csr(small_csr, vector_size=8, k=8)
    dense = small_csr.to_dense()
    for w in range(fmt.num_windows):
        row0, row1 = fmt.partition.window_row_range(w)
        for block in range(fmt.window_blocks(w)):
            cols, values = fmt.block_columns(w, block), fmt.block_values(w, block)
            assert values.shape == (8, cols.shape[0])
            for j, c in enumerate(cols):
                expected = np.zeros(8)
                expected[: row1 - row0] = dense[row0:row1, c]
                np.testing.assert_allclose(values[:, j], expected, rtol=1e-6)


def test_last_block_can_be_narrow(small_csr):
    fmt = BlockedVectorFormat.from_csr(small_csr, vector_size=8, k=8)
    narrow_found = False
    for w in range(fmt.num_windows):
        blocks = fmt.window_blocks(w)
        if blocks == 0:
            continue
        last = fmt.block_values(w, blocks - 1)
        assert 1 <= last.shape[1] <= 8
        if last.shape[1] < 8:
            narrow_found = True
    # With 8% density some window should end in a partial block.
    assert narrow_found


def test_block_out_of_range_raises(small_csr):
    fmt = BlockedVectorFormat.from_csr(small_csr, vector_size=8, k=8)
    with pytest.raises(IndexError):
        fmt.block_columns(0, fmt.window_blocks(0) + 5)


def test_num_tc_blocks_matches_partition(medium_csr):
    fmt = BlockedVectorFormat.from_csr(medium_csr, vector_size=8, k=4)
    assert fmt.num_tc_blocks == fmt.partition.num_tc_blocks(4)


def test_values_row_major_layout(small_csr):
    fmt = BlockedVectorFormat.from_csr(small_csr, vector_size=8, k=8)
    flat = fmt.values_row_major()
    assert flat.shape[0] == fmt.num_nonzero_vectors * 8
    # First block check: the first `width` values are the first row of block 0.
    first_window = next(w for w in range(fmt.num_windows) if fmt.window_blocks(w) > 0)
    block = fmt.block_values(first_window, 0)
    offset = 0
    for w in range(first_window):
        pass
    np.testing.assert_allclose(flat[: block.size], block.reshape(-1), rtol=1e-6)


def test_bad_k_rejected(small_csr):
    with pytest.raises(ValueError):
        BlockedVectorFormat.from_csr(small_csr, vector_size=8, k=0)


def test_zero_fill_matches_partition(small_csr):
    fmt = BlockedVectorFormat.from_csr(small_csr, vector_size=8, k=8)
    assert fmt.zero_fill == fmt.partition.zero_fill
    stored = np.count_nonzero(fmt.vector_values == 0)
    assert stored == fmt.zero_fill


def test_row_pointers_and_column_indices_exposed(small_csr):
    fmt = BlockedVectorFormat.from_csr(small_csr, vector_size=8, k=8)
    assert fmt.row_pointers.shape[0] == fmt.num_windows + 1
    assert fmt.column_indices.shape[0] == fmt.num_nonzero_vectors


# ---------------------------------------------------------------------------
# ME-BCRS
# ---------------------------------------------------------------------------
def test_mebcrs_defaults(small_csr):
    # k is the MMA's: m16n8k8 at FP16, m16n8k4 at TF32; FP32 takes FP16's.
    assert FLASH_VECTOR_SIZE == 8
    for precision, k in (("fp16", 8), ("tf32", 4), ("fp32", 8)):
        assert MEBCRSMatrix.from_csr(small_csr, precision=precision).k == k
        assert SRBCRSMatrix.from_csr(small_csr, precision=precision).k == k


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
def test_mebcrs_from_csr(small_csr, precision):
    fmt = MEBCRSMatrix.from_csr(small_csr, precision=precision)
    assert fmt.vector_size == 8
    assert fmt.k == FLASH_SHAPES[Precision(precision), "mma"].k
    np.testing.assert_allclose(fmt.to_dense(), small_csr.to_dense(), rtol=1e-2, atol=1e-2)


def test_mebcrs_residue_vectors(small_csr):
    fmt = MEBCRSMatrix.from_csr(small_csr, precision="fp16")
    for w in range(fmt.num_windows):
        residue = fmt.residue_vectors(w)
        count = fmt.partition.vectors_per_window[w]
        if count == 0:
            assert residue == 0
        else:
            expected = count % fmt.k or fmt.k
            assert residue == expected


def test_mebcrs_footprint_formula(medium_csr):
    fmt = MEBCRSMatrix.from_csr(medium_csr, precision="fp16")
    expected = (fmt.num_windows + 1) * 4 + fmt.num_nonzero_vectors * 4 + fmt.num_nonzero_vectors * 8 * 2
    assert fmt.memory_footprint_bytes() == expected


# ---------------------------------------------------------------------------
# SR-BCRS
# ---------------------------------------------------------------------------
def test_srbcrs_padding_counts(medium_csr):
    sr = SRBCRSMatrix.from_csr(medium_csr, precision="fp16")
    assert sr.num_padded_vectors == sr.partition.padded_vectors(sr.k)
    assert sr.num_stored_vectors == sr.num_nonzero_vectors + sr.num_padded_vectors
    assert sr.num_stored_vectors % 1 == 0


def test_mebcrs_never_larger_than_srbcrs(medium_csr, skewed_csr):
    """The Table 7 invariant: ME-BCRS always saves memory vs SR-BCRS."""
    for csr in (medium_csr, skewed_csr):
        for precision in ("fp16", "tf32"):
            me = MEBCRSMatrix.from_csr(csr, precision=precision)
            sr = SRBCRSMatrix.from_csr(csr, precision=precision)
            assert me.memory_footprint_bytes() <= sr.memory_footprint_bytes()
            reduction = footprint_reduction(me.memory_footprint_bytes(), sr.memory_footprint_bytes())
            assert 0.0 <= reduction < 1.0


def test_footprint_reduction_edge_cases():
    assert footprint_reduction(10, 0) == 0.0
    assert footprint_reduction(50, 100) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# SGT 16x1
# ---------------------------------------------------------------------------
def test_sgt16_defaults(small_csr):
    assert SGT_VECTOR_SIZE == 16
    for precision in ("fp16", "tf32", "fp32"):  # every 16x1 row is a k=8 MMA
        assert SGT16Matrix.from_csr(small_csr, precision=precision).k == 8
    fmt = SGT16Matrix.from_csr(small_csr)
    assert fmt.vector_size == 16
    assert fmt.k == 8
    np.testing.assert_allclose(fmt.to_dense(), small_csr.to_dense(), rtol=1e-2, atol=1e-2)


def test_sgt16_has_fewer_or_equal_vectors_than_mebcrs(medium_csr):
    """A 16-row window merges vectors, so it stores fewer (but longer) vectors."""
    me = MEBCRSMatrix.from_csr(medium_csr, precision="fp16")
    sgt = SGT16Matrix.from_csr(medium_csr, precision="tf32")
    assert sgt.num_nonzero_vectors <= me.num_nonzero_vectors
    # ... but more zero fill (Table 2).
    assert sgt.zero_fill >= me.zero_fill


def test_fp32_blocked_format_allowed_for_format_experiments(small_csr):
    fmt = MEBCRSMatrix.from_csr(small_csr, precision=Precision.FP32)
    assert fmt.value_element_bytes() == 4
