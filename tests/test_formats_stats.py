"""Tests for the redundancy statistics (Figure 1, Table 2, Figure 12 formulas)."""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.stats import (
    dense_tile_cols,
    mma_count_sddmm,
    mma_count_spmm,
    sddmm_data_access_bytes,
    sddmm_vectors_per_output_block,
    spmm_data_access_bytes,
    vector_stats,
)
from repro.formats.windows import partition_windows

from helpers import random_csr


def test_dense_tile_cols():
    # 16x1 -> each MMA covers 8 dense columns; 8x1 (swap) -> 16 columns.
    assert dense_tile_cols(16) == 8
    assert dense_tile_cols(8) == 16
    with pytest.raises(ValueError):
        dense_tile_cols(4)


def test_vector_stats_from_csr_and_partition(medium_csr):
    stats_csr = vector_stats(medium_csr, 8)
    stats_part = vector_stats(partition_windows(medium_csr, 8))
    assert stats_csr == stats_part
    assert stats_csr.nnz == medium_csr.nnz
    assert stats_csr.stored_elements == stats_csr.num_nonzero_vectors * 8
    assert 0 < stats_csr.vector_density <= 1
    assert stats_csr.fill_ratio == pytest.approx(stats_csr.zero_fill / stats_csr.nnz)


def test_vector_stats_requires_vector_size_for_csr(medium_csr):
    with pytest.raises(ValueError):
        vector_stats(medium_csr)


def test_zero_fill_reduction_8_vs_16(medium_csr):
    """Table 2: the 8x1 partition roughly halves the zero fill on sparse data."""
    s8 = vector_stats(medium_csr, 8)
    s16 = vector_stats(medium_csr, 16)
    assert s8.zero_fill <= s16.zero_fill
    assert s8.num_nonzero_vectors >= s16.num_nonzero_vectors


def test_figure2_example_mma_counts():
    """The worked example of Figures 2 and 6: 4 MMAs at 16x1 vs 2 MMAs at 8x1.

    The example matrix has 16 rows and nonzero columns spread such that the
    16x1 partition yields 11 nonzero vectors (2 TC blocks) while the 8x1
    partition yields two windows whose vectors fit into one 8x8 block each.
    The dense matrix has N = 16 columns.
    """
    rng = np.random.default_rng(0)
    dense = np.zeros((16, 19))
    # Window 0 (rows 0-7): 8 distinct nonzero columns.
    cols0 = [0, 3, 6, 9, 11, 14, 15, 16]
    for i, c in enumerate(cols0):
        dense[i % 8, c] = 1.0
    # Window 1 (rows 8-15): 8 distinct nonzero columns.
    cols1 = [2, 5, 8, 10, 12, 13, 17, 18]
    for i, c in enumerate(cols1):
        dense[8 + (i % 8), c] = 1.0
    csr = CSRMatrix.from_dense(dense)

    mma_8 = mma_count_spmm(csr, k=8, n_dense=16, vector_size=8)
    mma_16 = mma_count_spmm(csr, k=8, n_dense=16, vector_size=16)
    assert mma_8 == 2
    assert mma_16 == 4


def test_mma_count_spmm_formula(medium_csr):
    part8 = partition_windows(medium_csr, 8)
    part16 = partition_windows(medium_csr, 16)
    n = 128
    assert mma_count_spmm(part8, k=8, n_dense=n) == part8.num_tc_blocks(8) * (n // 16)
    assert mma_count_spmm(part16, k=8, n_dense=n) == part16.num_tc_blocks(8) * (n // 8)
    # Passing the CSR directly requires the vector size.
    with pytest.raises(ValueError):
        mma_count_spmm(medium_csr, k=8, n_dense=n)


def test_8x1_reduces_mma_count(medium_csr, skewed_csr):
    """Figure 1: the 8x1 vector size reduces SpMM MMA invocations (~40% on graphs)."""
    for csr in (medium_csr, skewed_csr):
        m8 = mma_count_spmm(csr, k=8, n_dense=128, vector_size=8)
        m16 = mma_count_spmm(csr, k=8, n_dense=128, vector_size=16)
        assert m8 < m16


def test_spmm_data_access_formula_matches_figure():
    """Figure 2 / 6: per-MMA data volume is (v*k + k*tile) elements."""
    csr = random_csr(64, 64, 0.1, seed=2)
    part = partition_windows(csr, 8)
    n = 32
    mmas = mma_count_spmm(part, k=8, n_dense=n)
    expected = mmas * (8 * 8 + 8 * 16) * 2
    assert spmm_data_access_bytes(part, k=8, n_dense=n, precision="fp16") == expected

    part16 = partition_windows(csr, 16)
    mmas16 = mma_count_spmm(part16, k=8, n_dense=n)
    expected16 = mmas16 * (16 * 8 + 8 * 8) * 2
    assert spmm_data_access_bytes(part16, k=8, n_dense=n, precision="fp16") == expected16


def test_spmm_data_access_8x1_lower_than_16x1(medium_csr):
    """Figure 12 (a): the 8x1 granularity reduces SpMM data access cost."""
    cost8 = spmm_data_access_bytes(medium_csr, k=8, n_dense=128, precision="fp16", vector_size=8)
    cost16 = spmm_data_access_bytes(medium_csr, k=8, n_dense=128, precision="fp16", vector_size=16)
    assert cost8 < cost16


def test_spmm_data_access_include_output(medium_csr):
    base = spmm_data_access_bytes(medium_csr, k=8, n_dense=64, vector_size=8)
    with_out = spmm_data_access_bytes(medium_csr, k=8, n_dense=64, vector_size=8, include_output=True)
    assert with_out > base


def test_sddmm_vectors_per_output_block():
    assert sddmm_vectors_per_output_block(8) == 16
    assert sddmm_vectors_per_output_block(16) == 8


def test_mma_count_sddmm(medium_csr):
    part8 = partition_windows(medium_csr, 8)
    part16 = partition_windows(medium_csr, 16)
    k_dense = 32
    m8 = mma_count_sddmm(part8, mma_k=8, k_dense=k_dense)
    m16 = mma_count_sddmm(part16, mma_k=8, k_dense=k_dense)
    counts8 = part8.vectors_per_window
    expected8 = int(((counts8 + 15) // 16).sum()) * 4
    assert m8 == expected8
    assert m8 < m16 * 2  # sanity: same order of magnitude
    with pytest.raises(ValueError):
        mma_count_sddmm(medium_csr, mma_k=8, k_dense=k_dense)


def test_sddmm_data_access_8x1_lower_than_16x1(medium_csr):
    """Figure 12 (b): the 8x1 granularity reduces SDDMM data access cost."""
    c8 = sddmm_data_access_bytes(medium_csr, mma_k=8, k_dense=32, precision="fp16", vector_size=8)
    c16 = sddmm_data_access_bytes(medium_csr, mma_k=8, k_dense=32, precision="fp16", vector_size=16)
    assert c8 < c16


def test_sddmm_data_access_include_output(medium_csr):
    base = sddmm_data_access_bytes(medium_csr, mma_k=8, k_dense=32, vector_size=8)
    with_out = sddmm_data_access_bytes(medium_csr, mma_k=8, k_dense=32, vector_size=8, include_output=True)
    assert with_out > base


def test_tf32_data_access_doubles_element_size(medium_csr):
    fp16 = spmm_data_access_bytes(medium_csr, k=8, n_dense=64, precision="fp16", vector_size=8)
    tf32 = spmm_data_access_bytes(medium_csr, k=8, n_dense=64, precision="tf32", vector_size=8)
    assert tf32 == 2 * fp16
