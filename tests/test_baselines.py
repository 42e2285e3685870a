"""Tests for the baseline registry, cost models and execute paths."""

import numpy as np
import pytest

from repro.baselines import (
    BASELINES,
    GNN_FRAMEWORK_BASELINES,
    KERNEL_BASELINES,
    SDDMM_BASELINES,
    CudaCoreParams,
    cuda_sddmm_cost,
    cuda_spmm_cost,
    csr_sddmm_reference,
    csr_spmm_reference,
    get_baseline,
)
from repro.baselines.tcu import (
    dtc_spmm_cost,
    tcgnn_sddmm_cost,
    tcgnn_spmm_cost,
    tcgnn_spmm_execute,
)
from repro.formats.cache import format_cache_stats
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.spmm_flash import spmm_flash_cost
from repro.kernels.spmm_tcu16 import spmm_tcu16_cost
from repro.precision.types import Precision

from helpers import random_csr


def test_registry_contains_all_table3_rows():
    """Table 3: every baseline the paper lists is registered."""
    expected = {
        "cuSPARSE",
        "Sputnik",
        "RoDe",
        "GE-SpMM",
        "GNNAdvisor",
        "DGL",
        "PyG",
        "DTC-SpMM",
        "TC-GNN",
    }
    assert set(BASELINES) == expected


def test_table3_precision_and_granularity():
    """Table 3: CUDA-core baselines are FP32; TCU baselines are TF32 at 16x1."""
    for name in ("cuSPARSE", "Sputnik", "RoDe", "GE-SpMM", "GNNAdvisor", "DGL", "PyG"):
        baseline = get_baseline(name)
        assert baseline.precision is Precision.FP32
        assert baseline.granularity == "CUDA cores"
    for name in ("DTC-SpMM", "TC-GNN"):
        baseline = get_baseline(name)
        assert baseline.precision is Precision.TF32
        assert baseline.granularity == "16x1 on TCU"


def test_kernel_and_sddmm_baseline_lists():
    assert set(KERNEL_BASELINES) <= set(BASELINES)
    assert set(SDDMM_BASELINES) == {"Sputnik", "RoDe", "TC-GNN"}
    assert set(GNN_FRAMEWORK_BASELINES) == {"DGL", "PyG", "TC-GNN"}


def test_get_baseline_case_insensitive():
    assert get_baseline("rode").name == "RoDe"
    assert get_baseline(" dtc-spmm ").name == "DTC-SpMM"
    with pytest.raises(KeyError):
        get_baseline("nonexistent")


def test_csr_spmm_reference(medium_csr, rng):
    b = rng.standard_normal((medium_csr.n_cols, 16)).astype(np.float32)
    out = csr_spmm_reference(medium_csr, b)
    np.testing.assert_allclose(out, medium_csr.to_dense() @ b, rtol=1e-4, atol=1e-4)


def test_csr_sddmm_reference(medium_csr, rng):
    a = rng.standard_normal((medium_csr.n_rows, 16)).astype(np.float32)
    b = rng.standard_normal((medium_csr.n_cols, 16)).astype(np.float32)
    out = csr_sddmm_reference(medium_csr, a, b)
    ref = (a @ b.T) * (medium_csr.to_dense() != 0)
    np.testing.assert_allclose(out.to_dense(), ref, rtol=1e-3, atol=1e-3)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_every_baseline_spmm_cost_is_well_formed(name, medium_csr):
    counter = get_baseline(name).spmm_cost(medium_csr, 64)
    assert counter.data_access_bytes > 0
    assert counter.footprint_read_bytes > 0
    assert counter.footprint_read_bytes <= counter.bytes_read
    if get_baseline(name).granularity == "CUDA cores":
        assert counter.cuda_fma == medium_csr.nnz * 64
        assert counter.total_mma == 0
    else:
        assert counter.total_mma > 0
        assert counter.cuda_fma == 0


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_every_baseline_spmm_execute_matches_reference(name, medium_csr, rng):
    baseline = get_baseline(name)
    b = rng.standard_normal((medium_csr.n_cols, 24))
    result = baseline.spmm_execute(medium_csr, b)
    ref = medium_csr.to_dense() @ b
    np.testing.assert_allclose(result.values, ref, rtol=2e-2, atol=2e-2)
    assert result.useful_flops == 2 * medium_csr.nnz * 24
    assert result.counter.data_access_bytes > 0


@pytest.mark.parametrize("name", sorted(SDDMM_BASELINES))
def test_sddmm_baselines_execute(name, medium_csr, rng):
    baseline = get_baseline(name)
    a = rng.standard_normal((medium_csr.n_rows, 16))
    b = rng.standard_normal((medium_csr.n_cols, 16))
    result = baseline.sddmm_execute(medium_csr, a, b)
    ref = (a @ b.T) * (medium_csr.to_dense() != 0)
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=2e-2, atol=2e-2)
    counter = baseline.sddmm_cost(medium_csr, 16)
    assert counter.data_access_bytes > 0


def test_cuda_core_cost_scales_with_n(medium_csr):
    params = CudaCoreParams(b_reuse=1.2, transaction_waste=1.0, index_ops_per_nnz=1.0)
    c64 = cuda_spmm_cost(medium_csr, 64, params)
    c128 = cuda_spmm_cost(medium_csr, 128, params)
    assert c128.cuda_fma == 2 * c64.cuda_fma
    assert c128.bytes_read > c64.bytes_read
    with pytest.raises(ValueError):
        cuda_spmm_cost(medium_csr, 0, params)
    with pytest.raises(ValueError):
        cuda_sddmm_cost(medium_csr, -1, params)


def test_cuda_core_params_validation():
    with pytest.raises(ValueError):
        CudaCoreParams(b_reuse=0.5, transaction_waste=1.0, index_ops_per_nnz=1.0)
    with pytest.raises(ValueError):
        CudaCoreParams(b_reuse=1.0, transaction_waste=0.9, index_ops_per_nnz=1.0)


def test_higher_reuse_lowers_b_traffic(medium_csr):
    low = cuda_spmm_cost(medium_csr, 64, CudaCoreParams(1.0, 1.0, 1.0))
    high = cuda_spmm_cost(medium_csr, 64, CudaCoreParams(2.0, 1.0, 1.0))
    assert high.bytes_read < low.bytes_read


def test_dtc_spmm_cost_is_the_16x1_tf32_kernel(medium_csr):
    dtc = dtc_spmm_cost(medium_csr, 64)
    plain = spmm_tcu16_cost(
        medium_csr, 64, FlashSparseConfig(precision="tf32"), api="mma"
    )
    assert dtc.total_mma == plain.total_mma
    assert dtc.data_access_bytes == plain.data_access_bytes
    assert ("m16n8k8", "tf32") in dtc.mma_invocations


def test_tcgnn_uses_wmma_and_position_checks(medium_csr):
    tcgnn = tcgnn_spmm_cost(medium_csr, 64)
    plain = spmm_tcu16_cost(
        medium_csr, 64, FlashSparseConfig(precision="tf32"), api="wmma"
    )
    assert ("m16n16k8", "tf32") in tcgnn.mma_invocations
    # Position checks add index work on top of the plain 16x1 kernel.
    assert tcgnn.index_ops > plain.index_ops
    sddmm = tcgnn_sddmm_cost(medium_csr, 32)
    assert sddmm.index_ops > 0


def test_tcgnn_translates_once_per_matrix(monkeypatch, rng):
    """The position-check count reads the kernel's own cached translation:
    on a warm cache no TC-GNN entry point translates again (it used to run
    an uncached ``SGT16Matrix.from_csr`` on every call)."""
    csr = random_csr(96, 80, 0.08, seed=21)
    b = rng.standard_normal((80, 24))
    tcgnn_spmm_cost(csr, 24)  # warm-up: the one translation
    before = format_cache_stats().misses
    calls = []
    original = SGT16Matrix.from_csr.__func__
    monkeypatch.setattr(
        SGT16Matrix,
        "from_csr",
        classmethod(lambda cls, *a, **kw: calls.append(1) or original(cls, *a, **kw)),
    )
    tcgnn_spmm_cost(csr, 24)
    tcgnn_sddmm_cost(csr, 16)
    tcgnn_spmm_execute(csr, b)
    assert calls == []
    assert format_cache_stats().misses == before


def test_flashsparse_dominates_baselines_on_counted_redundancy(medium_csr):
    """FlashSparse's MMA count and data access are below the 16x1 TCU baselines."""
    flash = spmm_flash_cost(medium_csr, 128, FlashSparseConfig(precision="fp16"))
    dtc = dtc_spmm_cost(medium_csr, 128)
    assert flash.total_mma < dtc.total_mma
    assert flash.data_access_bytes < dtc.data_access_bytes


def test_baseline_profiles_are_distinct_and_valid():
    names = {get_baseline(n).profile.name for n in BASELINES}
    assert len(names) == len(BASELINES)
    for n in BASELINES:
        profile = get_baseline(n).profile
        assert 0 < profile.tcu_efficiency <= 1
        assert 0 < profile.memory_efficiency <= 1
        assert profile.imbalance_factor >= 1
