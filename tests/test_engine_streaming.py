"""Chunk and shard parity of the batched execution engine.

The contract: for every SDDMM entry-chunk size (a private constant, patched
here — including pathological values) and every window-aligned shard cut
(shard size in blocks, shard count), the engine produces values
**bit-identical** to the one-shot batched run (SpMM accumulates every output
row from its own entries, SDDMM computes every entry from its own two dense
rows) and the closed-form ``CostCounter`` never sees either.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr, run_sharded

from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels import engine
from repro.kernels.common import FlashSparseConfig
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK, sddmm_flash_execute
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_execute
from repro.precision.types import quantize
from repro.serve.planner import plan_spmm

#: One block / entry, a prime that straddles window boundaries, an exact
#: multiple of typical window block counts, and a value larger than any
#: test matrix's block or entry count.  Read as the shard size in blocks
#: and, for SDDMM, also as the entry-chunk size.
CHUNKS = (1, 7, 16, 10_000)
#: Shard counts (the ``workers`` a carrier would split the request for).
WORKERS = (1, 4)


def _fmt_and_operands(seed=4, n=33):
    csr = random_csr(300, 280, 0.05, seed=seed)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((280, n))
    a = rng.standard_normal((300, n))
    return csr, fmt, a, b


def _sharded_spmm(fmt, csr, b, precision="fp16", **cut):
    """``A @ B`` through the shard table under the cut ``shards=`` / ``target_blocks=``."""
    return run_sharded("spmm", fmt, csr, [quantize(b, precision)], {"precision": precision}, **cut)


def _chunk_entries(monkeypatch, entries: int, k_dense: int) -> None:
    """Make the SDDMM core gather ``entries`` entries per chunk."""
    monkeypatch.setattr(engine, "_ENTRY_CHUNK_BYTES", entries * 8 * k_dense)


@pytest.mark.parametrize("block_chunk", CHUNKS)
@pytest.mark.parametrize("workers", WORKERS)
def test_spmm_chunked_matches_one_shot(block_chunk, workers):
    csr, fmt, _, b = _fmt_and_operands()
    base = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16"))
    out = _sharded_spmm(fmt, csr, b, shards=workers, target_blocks=block_chunk)
    np.testing.assert_array_equal(out, base.values)
    assert base.meta["engine"] == "batched"


@pytest.mark.parametrize("block_chunk", CHUNKS)
@pytest.mark.parametrize("workers", WORKERS)
def test_sddmm_chunked_is_bit_identical(block_chunk, workers, monkeypatch):
    """Entries are independent: any entry chunk, alone or under any shard
    cut, must be bit-exact — and invisible to the cost counter."""
    csr, fmt, a, b = _fmt_and_operands()
    base = sddmm_flash_execute(fmt, a, b, FlashSparseConfig(precision="fp16"))
    _chunk_entries(monkeypatch, block_chunk, a.shape[1])
    res = sddmm_flash_execute(fmt, a, b, FlashSparseConfig(precision="fp16"))
    np.testing.assert_array_equal(res.output.vector_values, base.output.vector_values)
    assert res.counter.as_dict() == base.counter.as_dict()
    out = run_sharded(
        "sddmm",
        fmt,
        csr,
        [quantize(a, "fp16"), quantize(b, "fp16")],
        {"precision": "fp16", "scale_by_mask": False},
        group=VECTORS_PER_OUTPUT_BLOCK,
        shards=workers,
        target_blocks=block_chunk,
    )
    np.testing.assert_array_equal(out, base.output.vector_values)


@pytest.mark.parametrize("workers", WORKERS)
def test_spmm_tcu16_chunked_parity(workers):
    csr = random_csr(200, 190, 0.06, seed=9)
    b = np.random.default_rng(9).standard_normal((190, 17))
    base = spmm_tcu16_execute(csr, b, FlashSparseConfig(precision="tf32"))
    fmt = SGT16Matrix.from_csr(csr, precision="tf32")
    out = _sharded_spmm(fmt, csr, b, "tf32", shards=workers, target_blocks=3)
    np.testing.assert_array_equal(out, base.values)


def test_max_intermediate_bytes_budget_streams_and_agrees():
    """A byte budget reaches the engine as the planner's shard size."""
    csr, fmt, _, b = _fmt_and_operands()
    base = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16"))
    plan = plan_spmm(fmt, b.shape[1], max_intermediate_bytes=40_000)
    # The derived shard honours the budget: chunk * bytes_per_block <= budget.
    assert 1 <= plan.block_chunk < fmt.num_tc_blocks
    assert plan.block_chunk * plan.bytes_per_block <= 40_000
    out = _sharded_spmm(fmt, csr, b, target_blocks=plan.block_chunk)
    np.testing.assert_array_equal(out, base.values)


def test_workers_only_sharding_matches_one_shot():
    """A shard count with no shard size still shards (an even split)."""
    csr, fmt, _, b = _fmt_and_operands(seed=11)
    base = spmm_flash_execute(fmt, b, FlashSparseConfig(precision="fp16"))
    out = _sharded_spmm(fmt, csr, b, shards=4)
    np.testing.assert_array_equal(out, base.values)


def test_streaming_handles_empty_and_degenerate_matrices(monkeypatch):
    _chunk_entries(monkeypatch, 1, 5)
    cfg = FlashSparseConfig(precision="fp16")
    empty_csr = random_csr(24, 18, 0.0, ensure_nonempty=False, seed=1)
    empty = MEBCRSMatrix.from_csr(empty_csr, precision="fp16")
    b = np.ones((18, 5))
    assert not spmm_flash_execute(empty, b, cfg).values.any()
    assert sddmm_flash_execute(empty, np.ones((24, 5)), b, cfg).output.vector_values.shape == (0, 8)
    params = {"precision": "fp16", "scale_by_mask": False}
    assert not _sharded_spmm(empty, empty_csr, b, shards=4).any()
    operands = [np.ones((24, 5), np.float32), quantize(b, "fp16")]
    assert run_sharded("sddmm", empty, empty_csr, operands, params, group=16).shape == (0, 8)

    single_csr = random_csr(11, 9, 0.0, ensure_nonempty=True, seed=1)  # one nonzero
    single = MEBCRSMatrix.from_csr(single_csr, precision="fp16")
    ones = np.ones((9, 3), np.float32)
    base = spmm_flash_execute(single, ones, cfg)
    out = _sharded_spmm(single, single_csr, ones, shards=4, target_blocks=1)
    np.testing.assert_array_equal(out, base.values)
    sbase = sddmm_flash_execute(single, np.ones((11, 3)), ones, cfg)
    sout = run_sharded(
        "sddmm", single, single_csr, [np.ones((11, 3), np.float32), ones], params, group=16, shards=4
    )
    np.testing.assert_array_equal(sout, sbase.output.vector_values)
    assert np.count_nonzero(sout) == 1
