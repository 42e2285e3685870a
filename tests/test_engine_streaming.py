"""Memory-bounded streaming parity of the batched execution engine.

The contract: for every ``block_chunk`` (including pathological values),
``max_intermediate_bytes`` budget and ``workers`` count, the engine produces
values **bit-identical** to the one-shot batched run (SpMM accumulates every
output row from its own entries, SDDMM output blocks are independent) and
*exactly* the same ``CostCounter`` state — chunking is an execution detail
neither the numerics nor the cost model ever see.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr

from repro.core.api import sddmm, spmm
from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.engine import resolve_block_chunk, spmm_batched
from repro.kernels.sddmm_flash import sddmm_flash_execute
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_execute

#: The ISSUE's chunk grid: one block, a prime that straddles window
#: boundaries, an exact multiple of typical window block counts, and a
#: value larger than any test matrix's block count.
CHUNKS = (1, 7, 16, 10_000)
WORKERS = (1, 4)


def _fmt_and_operands(seed=4, n=33):
    csr = random_csr(300, 280, 0.05, seed=seed)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((280, n))
    a = rng.standard_normal((300, n))
    return csr, fmt, a, b


@pytest.mark.parametrize("block_chunk", CHUNKS)
@pytest.mark.parametrize("workers", WORKERS)
def test_spmm_chunked_matches_one_shot(block_chunk, workers):
    csr, fmt, _, b = _fmt_and_operands()
    base = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16"))
    cfg = FlashSparseConfig(precision="fp16", block_chunk=block_chunk, workers=workers)
    res = spmm_flash_execute(fmt, b, cfg)
    np.testing.assert_array_equal(res.values, base.values)
    assert res.counter.as_dict() == base.counter.as_dict()
    assert res.meta["engine"] == "batched"


@pytest.mark.parametrize("block_chunk", CHUNKS)
@pytest.mark.parametrize("workers", WORKERS)
def test_sddmm_chunked_is_bit_identical(block_chunk, workers):
    """SDDMM blocks are independent: streaming must be bit-exact."""
    csr, fmt, a, b = _fmt_and_operands()
    base = sddmm_flash_execute(fmt, a, b, FlashSparseConfig(precision="fp16"))
    cfg = FlashSparseConfig(precision="fp16", block_chunk=block_chunk, workers=workers)
    res = sddmm_flash_execute(fmt, a, b, cfg)
    np.testing.assert_array_equal(res.output.vector_values, base.output.vector_values)
    assert res.counter.as_dict() == base.counter.as_dict()


@pytest.mark.parametrize("workers", WORKERS)
def test_spmm_tcu16_chunked_parity(workers):
    csr = random_csr(200, 190, 0.06, seed=9)
    b = np.random.default_rng(9).standard_normal((190, 17))
    base = spmm_tcu16_execute(csr, b, FlashSparseConfig(precision="tf32", swap_and_transpose=False))
    cfg = FlashSparseConfig(
        precision="tf32", swap_and_transpose=False, block_chunk=3, workers=workers
    )
    res = spmm_tcu16_execute(csr, b, cfg)
    np.testing.assert_array_equal(res.values, base.values)
    assert res.counter.as_dict() == base.counter.as_dict()


def test_max_intermediate_bytes_budget_streams_and_agrees():
    csr, fmt, _, b = _fmt_and_operands()
    base = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16"))
    cfg = FlashSparseConfig(precision="fp16", max_intermediate_bytes=40_000)
    res = spmm_flash_execute(fmt, b, cfg)
    np.testing.assert_array_equal(res.values, base.values)
    assert res.counter.as_dict() == base.counter.as_dict()
    # The derived chunk honours the budget: chunk * bytes_per_block <= budget
    # (with the one-block floor when the budget is below a single block).
    v, group, n = fmt.vector_size, fmt.k, b.shape[1]
    bytes_per_block = (v + group) * n * 4
    chunk = resolve_block_chunk(fmt.num_tc_blocks, bytes_per_block, None, 40_000)
    assert 1 <= chunk < fmt.num_tc_blocks
    assert chunk * bytes_per_block <= 40_000


def test_resolve_block_chunk_precedence_and_floors():
    assert resolve_block_chunk(100, 1000, None, None) == 100  # one-shot
    assert resolve_block_chunk(100, 1000, 7, 5) == 7  # explicit chunk wins
    assert resolve_block_chunk(100, 1000, None, 5) == 1  # floored at one block
    assert resolve_block_chunk(100, 1000, None, 3500) == 3
    assert resolve_block_chunk(0, 1000, None, None) == 1  # degenerate batch
    # The byte budget bounds the *run*, not each thread: K workers hold K
    # chunks concurrently, so the per-chunk share shrinks by K.
    assert resolve_block_chunk(100, 1000, None, 8000, workers=4) == 2
    assert resolve_block_chunk(100, 1000, None, 8000, workers=1) == 8


def test_workers_only_sharding_matches_one_shot():
    """workers > 1 with no chunk knob still shards (chunk = n_blocks)."""
    csr, fmt, _, b = _fmt_and_operands(seed=11)
    base = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16"))
    res = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16", workers=4))
    np.testing.assert_array_equal(res.values, base.values)
    assert res.counter.as_dict() == base.counter.as_dict()


def test_streaming_handles_empty_and_degenerate_matrices():
    empty = MEBCRSMatrix.from_csr(
        random_csr(24, 18, 0.0, ensure_nonempty=False, seed=1), precision="fp16"
    )
    b = np.ones((18, 5))
    cfg = FlashSparseConfig(precision="fp16", block_chunk=1, workers=4)
    res = spmm_flash_execute(empty, b, cfg)
    assert not res.values.any()

    single = random_csr(11, 9, 0.0, ensure_nonempty=True, seed=1)  # one nonzero
    res = spmm_flash_execute(single, np.ones((9, 3)), cfg)
    base = spmm_flash_execute(single, np.ones((9, 3)), FlashSparseConfig(precision="fp16"))
    np.testing.assert_array_equal(res.values, base.values)


def test_api_level_streaming_knobs():
    csr, _, a, b = _fmt_and_operands(seed=21)
    base = spmm(csr, b)
    res = spmm(csr, b, block_chunk=5, workers=2)
    np.testing.assert_array_equal(res.values, base.values)
    assert res.counter.as_dict() == base.counter.as_dict()

    sbase = sddmm(csr, a, b)
    sres = sddmm(csr, a, b, max_intermediate_bytes=30_000, workers=2)
    np.testing.assert_array_equal(
        sres.output.vector_values, sbase.output.vector_values
    )
    assert sres.counter.as_dict() == sbase.counter.as_dict()


def test_streaming_knob_validation():
    with pytest.raises(ValueError):
        FlashSparseConfig(block_chunk=0)
    with pytest.raises(ValueError):
        FlashSparseConfig(max_intermediate_bytes=0)
    with pytest.raises(ValueError):
        FlashSparseConfig(workers=0)


def test_spmm_batched_streaming_direct_call():
    """Engine-level call with every knob combined (chunk + budget + workers)."""
    csr, fmt, _, b = _fmt_and_operands(seed=31)
    b_q = np.asarray(b, dtype=np.float32)
    from repro.precision.types import Precision

    base = spmm_batched(fmt, b_q, Precision.FP16)
    streamed = spmm_batched(
        fmt, b_q, Precision.FP16, block_chunk=2, max_intermediate_bytes=999, workers=3
    )
    np.testing.assert_array_equal(streamed, base)
