"""The dense operands' path to ``quantize``: a float32 operand is quantised
from the caller's own array, never from a float64 copy of it, and anything
else is widened to float64 first — so a float64 caller sees exactly the
bits it always did."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from helpers import random_csr
from repro.kernels import sddmm as sddmm_module
from repro.kernels import spmm as spmm_module
from repro.serve import Server
from repro.serve import scheduler as scheduler_module


def _spy_quantize(monkeypatch, module) -> list:
    """Record every array ``module`` hands to ``quantize``."""
    seen, real = [], module.quantize

    def spy(x, precision):
        seen.append(x)
        return real(x, precision)

    monkeypatch.setattr(module, "quantize", spy)
    return seen


@pytest.fixture
def operands():
    rng = np.random.default_rng(5)
    csr = random_csr(64, 48, 0.1, seed=11)
    a = rng.standard_normal((64, 16)).astype(np.float32)
    b = rng.standard_normal((48, 16)).astype(np.float32)
    return csr, a, b


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
def test_float32_operands_reach_quantize_without_a_copy(monkeypatch, operands, precision):
    csr, a, b = operands
    seen = _spy_quantize(monkeypatch, spmm_module)
    repro.spmm(repro.FlashSparseMatrix(csr), b, precision=precision)
    assert len(seen) == 1 and np.shares_memory(seen[0], b)

    seen = _spy_quantize(monkeypatch, sddmm_module)
    repro.sddmm(repro.FlashSparseMatrix(csr), a, b, precision=precision)
    assert len(seen) == 2
    assert np.shares_memory(seen[0], a) and np.shares_memory(seen[1], b)


def test_served_float32_operand_reaches_quantize_without_a_copy(monkeypatch, operands):
    # The server hands the operand on as it is; the scheduler quantises.
    csr, _, b = operands
    seen = _spy_quantize(monkeypatch, scheduler_module)
    with Server(workers=1) as srv:
        srv.submit_spmm(csr, b).result(120)
    assert len(seen) == 1 and np.shares_memory(seen[0], b)


@pytest.mark.parametrize("dtype", [np.float16, np.int16, np.float64])
def test_other_operand_dtypes_are_quantised_from_float64(monkeypatch, operands, dtype):
    csr, _, b = operands
    b = (b * 8).astype(dtype)
    seen = _spy_quantize(monkeypatch, spmm_module)
    result = repro.spmm(repro.FlashSparseMatrix(csr), b)
    assert seen[0].dtype == np.float64
    np.testing.assert_array_equal(seen[0], b.astype(np.float64))
    # The same values as float32 give the same bits: fp16 of a float32 is
    # fp16 of its exact float64 widening.
    if dtype is not np.float64:
        narrow = repro.spmm(repro.FlashSparseMatrix(csr), b.astype(np.float32))
        np.testing.assert_array_equal(result.values, narrow.values)
