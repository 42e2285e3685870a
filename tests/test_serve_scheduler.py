"""In-process shard scheduler: bit-exact parity, counters, range invariants.

Because shards are window-aligned and reduced one-shot per window, the
scheduler's output is **bit-identical** to the single-process
``engine="batched"`` one-shot path for both SpMM and SDDMM, for any shard
size.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr

from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.engine import SHARD_OPS, window_aligned_ranges
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK, sddmm_flash_execute
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.precision.types import Precision, quantize
from repro.serve.scheduler import ShardScheduler

#: Shard-size grid: single-block shards, a prime that straddles windows,
#: and larger-than-batch (single shard).
TARGETS = (1, 7, 10_000)


def _workload(seed=4, n=33, rows=300, cols=280, density=0.05):
    csr = random_csr(rows, cols, density, seed=seed)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    a_q = quantize(rng.standard_normal((rows, n)), Precision.FP16).astype(np.float32)
    base = spmm_flash_execute(fmt, b_q, FlashSparseConfig(precision="fp16"))
    sbase = sddmm_flash_execute(fmt, a_q, b_q, FlashSparseConfig(precision="fp16"))
    return csr, fmt, a_q, b_q, base.values, sbase.output.vector_values


@pytest.mark.parametrize("target", TARGETS)
def test_spmm_inline_sharding_is_bit_identical(target):
    csr, fmt, _, b_q, base, _ = _workload()
    out = ShardScheduler().run_spmm(fmt, b_q, Precision.FP16, csr, target_blocks=target)
    np.testing.assert_array_equal(out, base)


@pytest.mark.parametrize("target", TARGETS)
def test_spmm_pool_sharding_is_bit_identical(target):
    """One scheduler over many requests, as a server holds it: bit-identical
    values, and the counters advance by the request and its shards."""
    csr, fmt, _, b_q, base, _ = _workload()
    sched = ShardScheduler()
    for _ in range(2):
        out = sched.run_spmm(fmt, b_q, Precision.FP16, csr, target_blocks=target)
        np.testing.assert_array_equal(out, base)
    shards, _ = SHARD_OPS["spmm"].plan(fmt, [b_q], None, 1, target)
    assert sched.stats_snapshot() == {"requests": 2, "shards": 2 * len(shards)}


@pytest.mark.parametrize("target", (1, 10_000))
def test_sddmm_pool_sharding_is_bit_identical(target):
    csr, fmt, a_q, b_q, _, sbase = _workload()
    vals = ShardScheduler().run_sddmm(
        fmt, a_q, b_q, Precision.FP16, VECTORS_PER_OUTPUT_BLOCK, csr, target_blocks=target
    )
    np.testing.assert_array_equal(vals, sbase)


def test_sddmm_scale_by_mask_parity():
    csr, fmt, a_q, b_q, _, _ = _workload(seed=9)
    ref = sddmm_flash_execute(
        fmt, a_q, b_q, FlashSparseConfig(precision="fp16"), scale_by_mask=True
    )
    vals = ShardScheduler().run_sddmm(
        fmt,
        a_q,
        b_q,
        Precision.FP16,
        VECTORS_PER_OUTPUT_BLOCK,
        csr,
        scale_by_mask=True,
        target_blocks=5,
    )
    np.testing.assert_array_equal(vals, ref.output.vector_values)


def test_randomized_parity_suite():
    """Randomized sweep over shapes and seeds: bit-identical values under a
    random shard size."""
    sched = ShardScheduler()
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(50, 400))
        cols = int(rng.integers(50, 400))
        n = int(rng.integers(1, 50))
        csr, fmt, a_q, b_q, base, sbase = _workload(
            seed=seed, n=n, rows=rows, cols=cols, density=0.06
        )
        target = int(rng.integers(1, 20))
        out = sched.run_spmm(fmt, b_q, Precision.FP16, csr, target_blocks=target)
        np.testing.assert_array_equal(out, base)
        vals = sched.run_sddmm(
            fmt, a_q, b_q, Precision.FP16, VECTORS_PER_OUTPUT_BLOCK, csr, target_blocks=target
        )
        np.testing.assert_array_equal(vals, sbase)


def test_degenerate_inputs():
    empty_csr = random_csr(24, 18, 0.0, ensure_nonempty=False, seed=1)
    empty = MEBCRSMatrix.from_csr(empty_csr, precision="fp16")
    sched = ShardScheduler()
    out = sched.run_spmm(empty, np.ones((18, 5), np.float32), Precision.FP16, empty_csr)
    assert out.shape == (24, 5) and not out.any()
    vals = sched.run_sddmm(
        empty,
        np.ones((24, 5), np.float32),
        np.ones((18, 5), np.float32),
        Precision.FP16,
        VECTORS_PER_OUTPUT_BLOCK,
        empty_csr,
    )
    assert vals.shape == empty.vector_values.shape


def test_window_aligned_ranges_invariants():
    # Window block offsets with empty windows at the front, middle and back.
    offsets = np.array([0, 0, 3, 3, 10, 12, 12], dtype=np.int64)
    for target in (1, 2, 5, 100):
        ranges = window_aligned_ranges(offsets, target)
        assert ranges, f"no ranges at target {target}"
        # Full coverage of all blocks, in order, without overlap.
        assert ranges[0].lo == 0 and ranges[-1].hi == 12
        for r0, r1 in zip(ranges, ranges[1:]):
            assert r0.hi == r1.lo and r0.w1 == r1.w0
        for r in ranges:
            # Window alignment: boundaries sit on window starts.
            assert r.lo == offsets[r.w0] and r.hi == offsets[r.w1]
            assert r.num_blocks > 0
    # A window wider than the target becomes its own shard (never split).
    ranges = window_aligned_ranges(offsets, 2)
    assert any(r.num_blocks == 7 for r in ranges)
    # Degenerate: no blocks at all.
    assert window_aligned_ranges(np.array([0, 0, 0]), 4) == []
