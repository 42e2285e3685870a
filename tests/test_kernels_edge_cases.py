"""Edge-case and regression tests for the kernels and formats.

These exercise the boundaries the paper's design has to get right: residue
(partial) TC blocks, windows narrower than the vector size, dense-tile tails
when N is not a multiple of 16/8, single-row and single-column matrices, and
very dense matrices where every vector is full.
"""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.sddmm_flash import sddmm_flash_cost, sddmm_flash_execute
from repro.kernels.sddmm_tcu16 import sddmm_tcu16_execute
from repro.kernels.spmm_flash import spmm_flash_cost, spmm_flash_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_execute
from repro.serve.program import gather_edge_values

from helpers import csr_with_zero_valued_entries, random_csr


def _check_spmm(csr, n_dense, precision="fp16", seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((csr.n_cols, n_dense))
    result = spmm_flash_execute(csr, b, FlashSparseConfig(precision=precision))
    ref = csr.to_dense() @ b
    np.testing.assert_allclose(result.values, ref, rtol=5e-2, atol=5e-2)
    cost = spmm_flash_cost(csr, n_dense, FlashSparseConfig(precision=precision))
    assert cost.as_dict() == result.counter.as_dict()
    return result


def test_single_row_matrix():
    csr = CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0, 0.0, 3.0]]))
    _check_spmm(csr, 16)


def test_single_column_matrix():
    csr = CSRMatrix.from_dense(np.arange(20, dtype=float).reshape(20, 1))
    _check_spmm(csr, 8)


def test_rows_not_multiple_of_window():
    # 21 rows -> last 8-row window has only 5 real rows.
    csr = random_csr(21, 33, 0.2, seed=1)
    _check_spmm(csr, 16)
    _check_spmm(csr, 16, precision="tf32")


def test_n_dense_not_multiple_of_tile():
    for n in (1, 7, 17, 30, 130):
        csr = random_csr(32, 32, 0.15, seed=2)
        _check_spmm(csr, n)


def test_fully_dense_matrix_has_no_zero_fill():
    dense = np.arange(1, 16 * 16 + 1, dtype=float).reshape(16, 16)
    csr = CSRMatrix.from_dense(dense)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    assert fmt.zero_fill == 0
    assert fmt.num_nonzero_vectors == 2 * 16  # two windows of 16 full vectors
    _check_spmm(csr, 16)


def test_diagonal_matrix_one_vector_per_window_column():
    csr = CSRMatrix.from_dense(np.diag(np.arange(1.0, 25.0)))
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    # Every window has exactly 8 nonzero vectors (one per diagonal element).
    assert np.all(fmt.partition.vectors_per_window == 8)
    _check_spmm(csr, 16)


def test_single_nonzero_matrix():
    dense = np.zeros((40, 40))
    dense[17, 23] = 5.0
    csr = CSRMatrix.from_dense(dense)
    result = _check_spmm(csr, 16)
    assert result.counter.total_mma == 1  # one block, one tile


def test_wide_rectangular_matrix():
    csr = random_csr(16, 300, 0.05, seed=3)
    _check_spmm(csr, 32)


def test_tall_rectangular_matrix():
    csr = random_csr(300, 16, 0.05, seed=4)
    _check_spmm(csr, 16)


def test_values_with_negatives_and_magnitudes():
    rng = np.random.default_rng(5)
    dense = np.zeros((24, 24))
    mask = rng.random((24, 24)) < 0.2
    dense[mask] = rng.uniform(-100, 100, size=mask.sum())
    csr = CSRMatrix.from_dense(dense)
    rng2 = np.random.default_rng(6)
    b = rng2.uniform(-10, 10, size=(24, 16))
    result = spmm_flash_execute(csr, b, FlashSparseConfig(precision="fp16"))
    np.testing.assert_allclose(result.values, dense @ b, rtol=5e-2, atol=2e-1)


def test_sddmm_k_smaller_than_mma_k():
    csr = random_csr(24, 24, 0.2, seed=7)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((24, 3))
    b = rng.standard_normal((24, 3))
    result = sddmm_flash_execute(csr, a, b, FlashSparseConfig(precision="fp16"))
    ref = (a @ b.T) * (csr.to_dense() != 0)
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=5e-2, atol=5e-2)
    cost = sddmm_flash_cost(csr, 3, FlashSparseConfig(precision="fp16"))
    assert cost.as_dict() == result.counter.as_dict()


def test_sddmm_single_window_many_vectors():
    # One 8-row window with 40 nonzero vectors -> multiple 8x16 output blocks.
    rng = np.random.default_rng(9)
    dense = np.zeros((8, 64))
    cols = rng.choice(64, size=40, replace=False)
    dense[rng.integers(0, 8, size=40), cols] = 1.0
    csr = CSRMatrix.from_dense(dense)
    a = rng.standard_normal((8, 16))
    b = rng.standard_normal((64, 16))
    result = sddmm_flash_execute(csr, a, b, FlashSparseConfig(precision="fp16"))
    ref = (a @ b.T) * (dense != 0)
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=5e-2, atol=5e-2)


def test_16x1_kernel_with_fewer_than_16_rows():
    csr = random_csr(10, 30, 0.2, seed=10)
    rng = np.random.default_rng(11)
    b = rng.standard_normal((30, 24))
    result = spmm_tcu16_execute(
        csr, b, FlashSparseConfig(precision="tf32")
    )
    np.testing.assert_allclose(result.values, csr.to_dense() @ b, rtol=5e-2, atol=5e-2)


def test_sgt16_single_window_structure():
    csr = random_csr(12, 40, 0.3, seed=12)
    fmt = SGT16Matrix.from_csr(csr)
    assert fmt.num_windows == 1
    assert fmt.partition.window_row_range(0) == (0, 12)


def test_duplicate_pattern_different_values_reuse_partition():
    base = random_csr(40, 40, 0.1, seed=13)
    other = base.with_values(np.arange(1, base.nnz + 1, dtype=np.float32))
    fmt_a = MEBCRSMatrix.from_csr(base, precision="fp16")
    fmt_b = MEBCRSMatrix.from_csr(other, precision="fp16")
    np.testing.assert_array_equal(fmt_a.column_indices, fmt_b.column_indices)
    np.testing.assert_array_equal(fmt_a.row_pointers, fmt_b.row_pointers)
    assert not np.allclose(fmt_a.vector_values, fmt_b.vector_values)


def test_cost_scaling_with_n_dense_is_linear_in_tiles():
    csr = random_csr(64, 64, 0.1, seed=14)
    c16 = spmm_flash_cost(csr, 16, FlashSparseConfig(precision="fp16"))
    c32 = spmm_flash_cost(csr, 32, FlashSparseConfig(precision="fp16"))
    c160 = spmm_flash_cost(csr, 160, FlashSparseConfig(precision="fp16"))
    assert c32.total_mma == 2 * c16.total_mma
    assert c160.total_mma == 10 * c16.total_mma


def test_precision_changes_block_width_and_mma_count():
    csr = random_csr(64, 64, 0.1, seed=15)
    fp16 = spmm_flash_cost(csr, 64, FlashSparseConfig(precision="fp16"))
    tf32 = spmm_flash_cost(csr, 64, FlashSparseConfig(precision="tf32"))
    # TF32 blocks are half as wide (k=4), so there are at least as many MMAs.
    assert tf32.total_mma >= fp16.total_mma


def test_non_finite_row_of_b_behind_an_unreferenced_column_stays_out():
    """Padded lanes of narrow TC blocks used to gather ``B[0]``: with column 0
    unreferenced and ``B[0]`` non-finite, ``0 · inf`` poisoned most outputs of
    the batched engine while the reference loop and SciPy stayed finite."""
    rng = np.random.default_rng(21)
    dense = rng.standard_normal((64, 64)) * (rng.random((64, 64)) < 0.1)
    dense[:, 0] = 0.0
    csr = CSRMatrix.from_dense(dense)
    b = rng.standard_normal((64, 4))
    b[0] = (np.inf, -np.inf, np.nan, np.inf)
    expected = csr.to_scipy() @ b
    assert np.isfinite(expected).all()
    for execute in (spmm_flash_execute, spmm_tcu16_execute):
        cfg = dict(precision="fp16")
        batched = execute(csr, b, FlashSparseConfig(**cfg)).values
        reference = execute(csr, b, FlashSparseConfig(engine="reference", **cfg)).values
        assert np.isfinite(batched).all()
        np.testing.assert_allclose(batched, reference, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(batched, expected, rtol=5e-2, atol=5e-2)


def test_sddmm_is_exactly_zero_at_stored_zeros_and_fp16_underflow():
    """SDDMM's mask is the stored value: an entry the format holds as zero
    samples nothing, under either engine and with or without scaling."""
    csr, zeroed = csr_with_zero_valued_entries()
    rng = np.random.default_rng(34)
    a, b = rng.standard_normal((40, 12)) + 3.0, rng.standard_normal((36, 12)) + 3.0
    for execute in (sddmm_flash_execute, sddmm_tcu16_execute):
        for engine in ("batched", "reference"):
            for scale_by_mask in (False, True):
                cfg = FlashSparseConfig(precision="fp16", engine=engine)
                out = execute(csr, a, b, cfg, scale_by_mask=scale_by_mask).output
                edges = gather_edge_values(out.partition, csr.indptr, out.vector_values)
                assert (edges[zeroed] == 0.0).all()
                assert np.count_nonzero(edges) == csr.nnz - 2


def test_non_finite_dense_rows_nothing_references_stay_out_of_sddmm():
    """The SDDMM siblings of the SpMM poisoning test: a row of A behind an
    empty sparse row and a row of B behind an empty sparse column are never
    gathered, so ``0 · inf`` cannot reach a sampled value."""
    rng = np.random.default_rng(22)
    dense = rng.standard_normal((64, 64)) * (rng.random((64, 64)) < 0.1)
    dense[:, 0] = 0.0
    dense[5] = 0.0
    csr = CSRMatrix.from_dense(dense)
    a, b = rng.standard_normal((64, 6)), rng.standard_normal((64, 6))
    a[5] = (np.inf, -np.inf, np.nan, np.inf, 0.0, 1.0)
    b[0] = (np.nan, np.inf, -np.inf, 1.0, 0.0, np.inf)
    rows, cols = csr.to_scipy().nonzero()
    expected = np.einsum("ek,ek->e", a[rows], b[cols])
    assert np.isfinite(expected).all()
    for execute in (sddmm_flash_execute, sddmm_tcu16_execute):
        cfg = dict(precision="fp16")
        batched = execute(csr, a, b, FlashSparseConfig(**cfg)).output
        with np.errstate(invalid="ignore"):  # the per-MMA loop multiplies whole tiles
            reference = execute(csr, a, b, FlashSparseConfig(engine="reference", **cfg)).output
        assert np.isfinite(batched.vector_values).all()
        np.testing.assert_allclose(
            batched.vector_values, reference.vector_values, rtol=1e-5, atol=1e-4
        )
        edges = gather_edge_values(batched.partition, csr.indptr, batched.vector_values)
        np.testing.assert_allclose(edges, expected, rtol=5e-2, atol=5e-2)


@pytest.mark.parametrize("fmt_cls", [MEBCRSMatrix, SGT16Matrix])
def test_block_index_matches_partition_block_widths(fmt_cls):
    """``blocks_as_arrays(g)`` is the index the shard cut and the benchmark
    read: its count and window offsets are ``block_widths(g)``'s."""
    fmt = fmt_cls.from_csr(random_csr(70, 50, 0.08, seed=21), precision="fp16")
    for group in (fmt.k, 16):
        widths, _, first_block = fmt.partition.block_widths(group)
        index = fmt.blocks_as_arrays(group)
        assert index.num_blocks == widths.shape[0]
        np.testing.assert_array_equal(index.window_offsets, first_block)
    assert fmt.blocks_as_arrays().group == fmt.k
    with pytest.raises(ValueError):
        fmt.blocks_as_arrays(0)
