"""Tests for the public API (repro.core.api)."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro import FlashSparseMatrix, KernelConfig, spmm, sddmm
from repro.core.api import sddmm_cost, spmm_cost
from repro.formats.csr import CSRMatrix
from repro.gpu.device import RTX4090
from repro.precision.types import Precision

from helpers import random_csr


def test_version_exported():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_flashsparse_matrix_constructors(rng):
    scipy_matrix = sp.random(50, 40, density=0.1, format="csr", random_state=0)
    m1 = FlashSparseMatrix.from_scipy(scipy_matrix)
    m2 = FlashSparseMatrix.from_dense(np.asarray(scipy_matrix.todense()))
    m3 = FlashSparseMatrix(
        csr=CSRMatrix(m1.csr.indptr, m1.csr.indices, m1.csr.data, m1.csr.shape)
    )
    assert m1.shape == m2.shape == m3.shape == (50, 40)
    assert m1.nnz == m2.nnz == m3.nnz
    np.testing.assert_allclose(
        np.asarray(m1.to_scipy().todense()), np.asarray(scipy_matrix.todense()), rtol=1e-6
    )


def test_mebcrs_and_sgt16_are_cached():
    m = FlashSparseMatrix.from_scipy(sp.random(64, 64, density=0.1, format="csr", random_state=1))
    a = m.mebcrs("fp16")
    b = m.mebcrs(Precision.FP16)
    assert a is b
    assert m.mebcrs("tf32") is not a
    assert m.sgt16() is m.sgt16()


def test_spmm_accepts_many_input_types(rng):
    scipy_matrix = sp.random(48, 48, density=0.1, format="csr", random_state=2)
    dense_rhs = rng.standard_normal((48, 16))
    ref = scipy_matrix @ dense_rhs
    for source in (
        scipy_matrix,
        FlashSparseMatrix.from_scipy(scipy_matrix),
        np.asarray(scipy_matrix.todense()),
    ):
        result = spmm(source, dense_rhs)
        np.testing.assert_allclose(result.values, ref, rtol=2e-2, atol=2e-2)
    with pytest.raises(TypeError):
        spmm("not a matrix", dense_rhs)


def test_spmm_result_fields(rng):
    csr = random_csr(64, 64, 0.1, seed=3)
    b = rng.standard_normal((64, 32))
    result = spmm(csr, b, device="rtx4090")
    assert result.values.shape == (64, 32)
    assert result.counter.total_mma > 0
    assert result.useful_flops == 2 * csr.nnz * 32
    assert result.estimate is not None
    assert result.estimate.device == RTX4090.name
    assert result.gflops and result.gflops > 0
    assert result.meta["precision"] == "fp16"


def test_spmm_without_device_has_no_estimate(rng):
    csr = random_csr(32, 32, 0.1, seed=4)
    result = spmm(csr, rng.standard_normal((32, 8)))
    assert result.estimate is None
    assert result.gflops is None


def test_spmm_precisions_and_mapping(rng):
    csr = random_csr(64, 64, 0.08, seed=5)
    b = rng.standard_normal((64, 16))
    ref = csr.to_dense() @ b
    for precision in ("fp16", "tf32"):
        for coalesced in (True, False):
            result = spmm(csr, b, precision=precision, coalesced=coalesced)
            np.testing.assert_allclose(result.values, ref, rtol=2e-2, atol=2e-2)


def test_sddmm_api(rng):
    csr = random_csr(48, 40, 0.1, seed=6)
    a = rng.standard_normal((48, 16))
    b = rng.standard_normal((40, 16))
    result = sddmm(csr, a, b, device="h100")
    ref = (a @ b.T) * (csr.to_dense() != 0)
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=3e-2, atol=3e-2)
    np.testing.assert_allclose(np.asarray(result.to_scipy().todense()), ref, rtol=3e-2, atol=3e-2)
    assert result.estimate is not None and result.gflops > 0
    assert result.useful_flops == 2 * csr.nnz * 16


def test_sddmm_scale_by_mask(rng):
    csr = random_csr(32, 32, 0.1, seed=7)
    a = rng.standard_normal((32, 8))
    b = rng.standard_normal((32, 8))
    result = sddmm(csr, a, b, scale_by_mask=True)
    ref = (a @ b.T) * csr.to_dense()
    np.testing.assert_allclose(result.output.to_dense(), ref, rtol=3e-2, atol=3e-2)


def test_cost_only_entry_points_match_execution(rng):
    csr = random_csr(64, 64, 0.1, seed=8)
    b = rng.standard_normal((64, 32))
    executed = spmm(csr, b, precision="fp16")
    estimated = spmm_cost(csr, 32, precision="fp16")
    assert estimated.as_dict() == executed.counter.as_dict()
    a = rng.standard_normal((64, 16))
    executed_sddmm = sddmm(csr, a, rng.standard_normal((64, 16)))
    estimated_sddmm = sddmm_cost(csr, 16)
    assert estimated_sddmm.total_mma == executed_sddmm.counter.total_mma


def test_kernel_config_alias():
    config = KernelConfig(precision="tf32", coalesced=False)
    assert config.precision is Precision.TF32


def test_package_docstring_example_runs():
    rng = np.random.default_rng(0)
    a = sp.random(64, 64, density=0.05, format="csr", random_state=0)
    fsm = FlashSparseMatrix.from_scipy(a)
    b = rng.standard_normal((64, 16))
    out = spmm(fsm, b)
    assert np.allclose(out.values, a @ b, atol=1e-2)
