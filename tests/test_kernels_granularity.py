"""The binding table the four TCU kernel entry points are declared over."""

import numpy as np
import pytest

from helpers import random_csr

from repro.kernels import sddmm_flash, sddmm_tcu16
from repro.kernels.common import FlashSparseConfig
from repro.kernels.granularity import FLASH, TCU16
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_execute


@pytest.mark.parametrize(
    "binding, precision, api, vector_size, dense_span, k",
    [
        (FLASH, "fp16", "mma", 8, 16, 8),
        (FLASH, "tf32", "mma", 8, 16, 4),
        (TCU16, "fp16", "mma", 16, 8, 8),
        (TCU16, "tf32", "mma", 16, 8, 8),
        (TCU16, "tf32", "wmma", 16, 16, 8),
    ],
)
def test_binding_table(binding, precision, api, vector_size, dense_span, k):
    shape = binding.shape_for(precision, api)
    assert (binding.vector_size, binding.dense_span(shape), shape.k) == (vector_size, dense_span, k)
    # The sparse block's rows bind to n when swapped, to m when direct.
    assert vector_size == (shape.n if binding.swapped else shape.m)


def test_unsupported_instructions_raise():
    with pytest.raises(ValueError):
        TCU16.shape_for("fp16", "wmma")  # TC-GNN's WMMA path is TF32 only
    with pytest.raises(ValueError):
        FLASH.shape_for("tf32", "wmma")


def test_module_constants_and_meta_report_the_table():
    for module, binding in ((sddmm_flash, FLASH), (sddmm_tcu16, TCU16)):
        spans = {binding.dense_span(binding.shape_for(p)) for p in ("fp16", "tf32")}
        assert spans == {module.VECTORS_PER_OUTPUT_BLOCK}
    csr = random_csr(40, 36, 0.1, seed=6)
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((40, 12)), rng.standard_normal((36, 12))
    config = FlashSparseConfig(precision="tf32")
    results = {
        8: (spmm_flash_execute(csr, b, config), sddmm_flash.sddmm_flash_execute(csr, a, b, config)),
        16: (spmm_tcu16_execute(csr, b, config), sddmm_tcu16.sddmm_tcu16_execute(csr, a, b, config)),
    }
    for vector_size, (spmm_result, sddmm_result) in results.items():
        assert spmm_result.meta["vector_size"] == vector_size
        assert sddmm_result.meta["vector_size"] == vector_size
        assert sddmm_result.output.vector_size == vector_size
