"""Tests for the FlashSparse SDDMM kernel and the 16x1 baseline kernel."""

import numpy as np
import pytest

from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.sddmm_flash import (
    algorithm1_offsets,
    sddmm_flash_cost,
    sddmm_flash_execute,
    split_output_tile,
)
from repro.kernels.sddmm_tcu16 import sddmm_tcu16_cost, sddmm_tcu16_execute

from helpers import random_csr


def reference_sddmm(csr, a, b, scale_by_mask=False):
    """Dense reference: (a @ b.T) masked to the sparsity pattern of csr."""
    dense_mask = csr.to_dense() != 0
    products = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64).T
    out = np.where(dense_mask, products, 0.0)
    if scale_by_mask:
        out = out * csr.to_dense()
    return out


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
@pytest.mark.parametrize("k_dense", [8, 32, 50])
def test_sddmm_flash_matches_reference(small_csr, rng, precision, k_dense):
    a = rng.standard_normal((small_csr.n_rows, k_dense))
    b = rng.standard_normal((small_csr.n_cols, k_dense))
    result = sddmm_flash_execute(small_csr, a, b, FlashSparseConfig(precision=precision))
    ref = reference_sddmm(small_csr, a, b)
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=3e-2, atol=3e-2)
    assert result.useful_flops == 2 * small_csr.nnz * k_dense


def test_sddmm_flash_scale_by_mask(small_csr, rng):
    a = rng.standard_normal((small_csr.n_rows, 16))
    b = rng.standard_normal((small_csr.n_cols, 16))
    result = sddmm_flash_execute(small_csr, a, b, scale_by_mask=True)
    ref = reference_sddmm(small_csr, a, b, scale_by_mask=True)
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=3e-2, atol=3e-2)


def test_sddmm_flash_output_preserves_sparsity_pattern(medium_csr, rng):
    a = rng.standard_normal((medium_csr.n_rows, 16))
    b = rng.standard_normal((medium_csr.n_cols, 16))
    result = sddmm_flash_execute(medium_csr, a, b)
    out_dense = result.output.to_dense()
    mask = medium_csr.to_dense() != 0
    assert np.all(out_dense[~mask] == 0.0)


def test_sddmm_flash_output_feeds_spmm(medium_csr, rng):
    """The paper's pipeline: the SDDMM output (same blocked layout) feeds SpMM."""
    from repro.kernels.spmm_flash import spmm_flash_execute

    a = rng.standard_normal((medium_csr.n_rows, 16))
    b = rng.standard_normal((medium_csr.n_cols, 16))
    sddmm_out = sddmm_flash_execute(medium_csr, a, b, FlashSparseConfig(precision="fp16"))
    dense_rhs = rng.standard_normal((medium_csr.n_cols, 32))
    spmm_out = spmm_flash_execute(sddmm_out.output, dense_rhs, FlashSparseConfig(precision="fp16"))
    ref_sparse = reference_sddmm(medium_csr, a, b)
    ref = ref_sparse @ dense_rhs
    np.testing.assert_allclose(spmm_out.values, ref, rtol=5e-2, atol=5e-2)


def test_sddmm_flash_validates_inputs(small_csr, rng):
    a = rng.standard_normal((small_csr.n_rows, 16))
    b = rng.standard_normal((small_csr.n_cols, 8))
    with pytest.raises(ValueError):
        sddmm_flash_execute(small_csr, a, b)  # mismatched K
    with pytest.raises(ValueError):
        sddmm_flash_execute(small_csr, a[: small_csr.n_rows - 1], a)


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
@pytest.mark.parametrize("k_dense", [16, 32])
def test_sddmm_flash_cost_matches_execute(medium_csr, rng, precision, k_dense):
    config = FlashSparseConfig(precision=precision)
    a = rng.standard_normal((medium_csr.n_rows, k_dense))
    b = rng.standard_normal((medium_csr.n_cols, k_dense))
    executed = sddmm_flash_execute(medium_csr, a, b, config)
    estimated = sddmm_flash_cost(medium_csr, k_dense, config)
    assert estimated.as_dict() == executed.counter.as_dict()


def test_sddmm_flash_cost_rejects_bad_k(medium_csr):
    with pytest.raises(ValueError):
        sddmm_flash_cost(medium_csr, 0)


def test_sddmm_output_block_is_8x16(medium_csr):
    """The swap-and-transpose SDDMM processes 16 nonzero vectors per output block."""
    counter = sddmm_flash_cost(medium_csr, 32, FlashSparseConfig(precision="fp16"))
    fmt = MEBCRSMatrix.from_csr(medium_csr, precision="fp16")
    counts = fmt.partition.vectors_per_window
    blocks = int(np.ceil(counts / 16).sum())
    assert counter.total_mma == blocks * (32 // 8)


# ---------------------------------------------------------------------------
# Algorithm 1 (output splitting)
# ---------------------------------------------------------------------------
def test_algorithm1_offsets_8x4_form_a_permutation():
    """Each thread's c0 target must be distinct (the warp writes 32 distinct slots)."""
    offsets = [algorithm1_offsets(tid, "8x4") for tid in range(32)]
    assert len(set(offsets)) == 32
    assert min(offsets) >= 0


def test_algorithm1_offsets_8x8_form_a_permutation():
    offsets = [algorithm1_offsets(tid, "8x8") for tid in range(32)]
    assert len(set(offsets)) == 32


def test_algorithm1_offsets_match_paper_examples():
    # Lines 3 and 8 of Algorithm 1 evaluated by hand.
    assert algorithm1_offsets(0, "8x8") == 0
    assert algorithm1_offsets(1, "8x8") == 16
    assert algorithm1_offsets(4, "8x8") == 1
    assert algorithm1_offsets(0, "8x4") == 0
    assert algorithm1_offsets(16, "8x4") == 4 + 32 - 4
    with pytest.raises(ValueError):
        algorithm1_offsets(32, "8x4")
    with pytest.raises(ValueError):
        algorithm1_offsets(0, "4x4")


def test_split_output_tile_tf32_makes_four_8x4_tiles(rng):
    tile = rng.standard_normal((8, 16))
    parts = split_output_tile(tile, "tf32")
    assert len(parts) == 4
    assert all(p.shape == (8, 4) for p in parts)
    np.testing.assert_array_equal(np.concatenate(parts, axis=1), tile)


def test_split_output_tile_fp16_makes_two_8x8_tiles(rng):
    tile = rng.standard_normal((8, 16))
    parts = split_output_tile(tile, "fp16")
    assert len(parts) == 2
    assert all(p.shape == (8, 8) for p in parts)
    np.testing.assert_array_equal(np.concatenate(parts, axis=1), tile)


def test_split_output_tile_validates_shape(rng):
    with pytest.raises(ValueError):
        split_output_tile(rng.standard_normal((16, 8)), "fp16")


# ---------------------------------------------------------------------------
# 16x1 SDDMM baseline
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("precision", ["fp16", "tf32"])
def test_sddmm_tcu16_matches_reference(small_csr, rng, precision):
    a = rng.standard_normal((small_csr.n_rows, 24))
    b = rng.standard_normal((small_csr.n_cols, 24))
    config = FlashSparseConfig(precision=precision)
    result = sddmm_tcu16_execute(small_csr, a, b, config)
    ref = reference_sddmm(small_csr, a, b)
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=3e-2, atol=3e-2)


def test_sddmm_tcu16_cost_matches_execute(medium_csr, rng):
    config = FlashSparseConfig(precision="tf32")
    a = rng.standard_normal((medium_csr.n_rows, 32))
    b = rng.standard_normal((medium_csr.n_cols, 32))
    executed = sddmm_tcu16_execute(medium_csr, a, b, config)
    estimated = sddmm_tcu16_cost(medium_csr, 32, config)
    assert estimated.as_dict() == executed.counter.as_dict()


def test_flash_sddmm_uses_fewer_mma_than_16x1(medium_csr):
    """Figure 14 (SDDMM ablation): 8x1 needs fewer MMAs and less data access."""
    flash = sddmm_flash_cost(medium_csr, 32, FlashSparseConfig(precision="fp16"))
    v16 = sddmm_tcu16_cost(medium_csr, 32, FlashSparseConfig(precision="fp16"))
    assert flash.total_mma < v16.total_mma
    assert flash.data_access_bytes < v16.data_access_bytes
