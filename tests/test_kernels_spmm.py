"""Tests for the FlashSparse SpMM kernel and the 16x1 baseline kernel."""

import numpy as np
import pytest

from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.spmm_flash import spmm_flash_cost, spmm_flash_execute
from repro.kernels.spmm_tcu16 import instruction_for, spmm_tcu16_cost, spmm_tcu16_execute
from repro.precision.types import Precision

from helpers import random_csr


def reference_spmm(csr, b):
    return np.asarray(csr.to_scipy().astype(np.float64) @ np.asarray(b, dtype=np.float64))


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
@pytest.mark.parametrize("n_dense", [16, 40, 128])
def test_spmm_flash_matches_reference(small_csr, rng, precision, n_dense):
    b = rng.standard_normal((small_csr.n_cols, n_dense))
    result = spmm_flash_execute(small_csr, b, FlashSparseConfig(precision=precision))
    ref = reference_spmm(small_csr, b)
    np.testing.assert_allclose(result.values, ref, rtol=2e-2, atol=2e-2)
    assert result.values.shape == (small_csr.n_rows, n_dense)
    assert result.useful_flops == 2 * small_csr.nnz * n_dense


@pytest.mark.parametrize("coalesced", [True, False])
def test_spmm_flash_coalescing_does_not_change_values(medium_csr, rng, coalesced):
    b = rng.standard_normal((medium_csr.n_cols, 32))
    result = spmm_flash_execute(medium_csr, b, FlashSparseConfig(precision="fp16", coalesced=coalesced))
    ref = reference_spmm(medium_csr, b)
    np.testing.assert_allclose(result.values, ref, rtol=2e-2, atol=2e-2)


def test_spmm_flash_accepts_prebuilt_mebcrs(small_csr, rng):
    fmt = MEBCRSMatrix.from_csr(small_csr, precision="fp16")
    b = rng.standard_normal((small_csr.n_cols, 16))
    result = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16"))
    np.testing.assert_allclose(result.values, reference_spmm(small_csr, b), rtol=2e-2, atol=2e-2)


def test_spmm_flash_rejects_mismatched_format(small_csr, rng):
    fmt16 = SGT16Matrix.from_csr(small_csr)
    b = rng.standard_normal((small_csr.n_cols, 16))
    with pytest.raises(ValueError):
        spmm_flash_execute(fmt16, b, FlashSparseConfig(precision="fp16"))
    # k mismatch: tf32 format used with fp16 config.
    fmt_tf32 = MEBCRSMatrix.from_csr(small_csr, precision="tf32")
    with pytest.raises(ValueError):
        spmm_flash_execute(fmt_tf32, b, FlashSparseConfig(precision="fp16"))


def test_spmm_flash_rejects_wrong_b_shape(small_csr, rng):
    b = rng.standard_normal((small_csr.n_cols + 1, 16))
    with pytest.raises(ValueError):
        spmm_flash_execute(small_csr, b)
    with pytest.raises(ValueError):
        spmm_flash_execute(small_csr, rng.standard_normal(small_csr.n_cols))


def test_config_rejects_fp32():
    with pytest.raises(ValueError):
        FlashSparseConfig(precision="fp32")


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
@pytest.mark.parametrize("n_dense", [16, 48, 128])
def test_spmm_flash_cost_matches_execute(medium_csr, rng, precision, n_dense):
    """The analytic cost estimator reproduces the executed kernel's counters."""
    config = FlashSparseConfig(precision=precision)
    b = rng.standard_normal((medium_csr.n_cols, n_dense))
    executed = spmm_flash_execute(medium_csr, b, config)
    estimated = spmm_flash_cost(medium_csr, n_dense, config)
    assert estimated.as_dict() == executed.counter.as_dict()


def test_spmm_flash_mma_count_formula(medium_csr):
    config = FlashSparseConfig(precision="fp16")
    counter = spmm_flash_cost(medium_csr, 128, config)
    fmt = MEBCRSMatrix.from_csr(medium_csr, precision="fp16")
    assert counter.total_mma == fmt.num_tc_blocks * (128 // 16)
    assert ("m16n8k8", "fp16") in counter.mma_invocations


def test_spmm_flash_tf32_uses_m16n8k4(medium_csr):
    counter = spmm_flash_cost(medium_csr, 64, FlashSparseConfig(precision="tf32"))
    assert set(counter.mma_invocations) == {("m16n8k4", "tf32")}


def test_coalesced_mapping_halves_b_transactions(medium_csr):
    """Figure 15's mechanism: the coalesced mapping halves the B-load transactions."""
    coalesced = spmm_flash_cost(medium_csr, 64, FlashSparseConfig(precision="fp16", coalesced=True))
    direct = spmm_flash_cost(medium_csr, 64, FlashSparseConfig(precision="fp16", coalesced=False))
    assert direct.total_load_transactions > coalesced.total_load_transactions
    # Same useful bytes, same MMAs — only the transaction count differs.
    assert direct.bytes_read == coalesced.bytes_read
    assert direct.total_mma == coalesced.total_mma
    assert direct.transaction_bytes_moved > coalesced.transaction_bytes_moved


def test_tf32_coalescing_is_a_noop(medium_csr):
    coalesced = spmm_flash_cost(medium_csr, 64, FlashSparseConfig(precision="tf32", coalesced=True))
    direct = spmm_flash_cost(medium_csr, 64, FlashSparseConfig(precision="tf32", coalesced=False))
    assert coalesced.as_dict() == direct.as_dict()


def test_spmm_flash_footprint_bounded_by_bytes_read(medium_csr):
    counter = spmm_flash_cost(medium_csr, 128, FlashSparseConfig(precision="fp16"))
    assert 0 < counter.footprint_read_bytes <= counter.bytes_read
    assert counter.footprint_write_bytes == counter.bytes_written


def test_spmm_flash_cost_rejects_bad_n(medium_csr):
    with pytest.raises(ValueError):
        spmm_flash_cost(medium_csr, 0)


def test_spmm_flash_empty_matrix(rng):
    from repro.formats.csr import CSRMatrix

    empty = CSRMatrix(np.zeros(17, dtype=np.int64), np.zeros(0, np.int32), np.zeros(0), (16, 16))
    b = rng.standard_normal((16, 16))
    result = spmm_flash_execute(empty, b)
    np.testing.assert_array_equal(result.values, np.zeros((16, 16)))
    assert result.counter.total_mma == 0


# ---------------------------------------------------------------------------
# 16x1 baseline kernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("precision,api", [("fp16", "mma"), ("tf32", "mma"), ("tf32", "wmma")])
def test_spmm_tcu16_matches_reference(small_csr, rng, precision, api):
    b = rng.standard_normal((small_csr.n_cols, 40))
    config = FlashSparseConfig(precision=precision)
    result = spmm_tcu16_execute(small_csr, b, config, api=api)
    np.testing.assert_allclose(result.values, reference_spmm(small_csr, b), rtol=2e-2, atol=2e-2)


@pytest.mark.parametrize("precision,api", [("fp16", "mma"), ("tf32", "mma"), ("tf32", "wmma")])
def test_spmm_tcu16_cost_matches_execute(medium_csr, rng, precision, api):
    config = FlashSparseConfig(precision=precision)
    b = rng.standard_normal((medium_csr.n_cols, 48))
    executed = spmm_tcu16_execute(medium_csr, b, config, api=api)
    estimated = spmm_tcu16_cost(medium_csr, 48, config, api=api)
    assert estimated.as_dict() == executed.counter.as_dict()


def test_instruction_for_selection():
    assert instruction_for(Precision.TF32, "mma").name == "m16n8k8"
    assert instruction_for(Precision.FP16, "mma").name == "m16n8k8"
    assert instruction_for(Precision.TF32, "wmma").name == "m16n16k8"
    with pytest.raises(ValueError):
        instruction_for(Precision.FP16, "wmma")


def test_spmm_tcu16_rejects_8_row_format(small_csr, rng):
    fmt8 = MEBCRSMatrix.from_csr(small_csr, precision="fp16")
    with pytest.raises(ValueError):
        spmm_tcu16_execute(fmt8, rng.standard_normal((small_csr.n_cols, 16)))


def test_flash_uses_fewer_mma_than_16x1(medium_csr, skewed_csr):
    """Figure 1 / Figure 14: the 8x1 strategy needs fewer MMA invocations."""
    for csr in (medium_csr, skewed_csr):
        flash = spmm_flash_cost(csr, 128, FlashSparseConfig(precision="fp16"))
        v16 = spmm_tcu16_cost(csr, 128, FlashSparseConfig(precision="fp16"))
        assert flash.total_mma < v16.total_mma
        assert flash.data_access_bytes < v16.data_access_bytes


def test_flash_and_16x1_agree_numerically(medium_csr, rng):
    b = rng.standard_normal((medium_csr.n_cols, 32))
    flash = spmm_flash_execute(medium_csr, b, FlashSparseConfig(precision="fp16"))
    v16 = spmm_tcu16_execute(
        medium_csr, b, FlashSparseConfig(precision="fp16")
    )
    np.testing.assert_allclose(flash.values, v16.values, rtol=2e-2, atol=2e-2)
