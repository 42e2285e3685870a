"""Property-based tests for the kernels and the memory/MMA substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.gpu.memory import simulate_warp_load
from repro.gpu.mma import (
    MMA_M16N8K4_TF32,
    MMA_M16N8K8_FP16,
    mma_execute_swapped,
)
from repro.kernels.common import FlashSparseConfig
from repro.kernels.engine import SHARD_OPS, spmm_batched, window_aligned_ranges
from repro.kernels.sddmm_flash import sddmm_flash_cost, sddmm_flash_execute
from repro.kernels.spmm_flash import spmm_flash_cost, spmm_flash_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_cost, spmm_tcu16_execute
from repro.precision.types import Precision, quantize

from test_property_formats import sparse_matrices


@settings(max_examples=50, deadline=None)
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=32),
    access_bytes=st.sampled_from([2, 4, 8, 16]),
)
def test_coalescer_invariants(addresses, access_bytes):
    report = simulate_warp_load(addresses, access_bytes)
    # Transactions always cover the useful bytes, never exceed one per access
    # element-sector pair, and every size is a multiple of 32 capped at 128.
    assert report.bytes_moved >= min(report.useful_bytes, report.bytes_moved)
    assert all(32 <= s <= 128 and s % 32 == 0 for s in report.transaction_sizes)
    assert report.num_transactions <= len(addresses) * 2
    assert 0 < report.efficiency <= 1


@settings(max_examples=50, deadline=None)
@given(data=st.data(), shape=st.sampled_from([MMA_M16N8K8_FP16, MMA_M16N8K4_TF32]))
def test_swap_and_transpose_identity_property(data, shape):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    sparse_tile = rng.uniform(-2, 2, size=(shape.n, shape.k))
    dense_tile = rng.uniform(-2, 2, size=(shape.k, shape.m))
    out = mma_execute_swapped(sparse_tile, dense_tile, None, shape)
    np.testing.assert_allclose(out, sparse_tile @ dense_tile, rtol=5e-2, atol=5e-2)


@settings(max_examples=25, deadline=None)
@given(matrix=sparse_matrices(max_rows=64, max_cols=64, max_nnz=200), n_dense=st.sampled_from([8, 16, 48]))
def test_spmm_flash_correct_for_arbitrary_structure(matrix, n_dense):
    rng = np.random.default_rng(0)
    b = rng.standard_normal((matrix.n_cols, n_dense))
    result = spmm_flash_execute(matrix, b, FlashSparseConfig(precision="fp16"))
    reference = matrix.to_dense() @ b
    np.testing.assert_allclose(result.values, reference, rtol=5e-2, atol=5e-2)
    # Cost estimator agrees with the executed counter on every structure.
    cost = spmm_flash_cost(matrix, n_dense, FlashSparseConfig(precision="fp16"))
    assert cost.as_dict() == result.counter.as_dict()


@settings(max_examples=20, deadline=None)
@given(matrix=sparse_matrices(max_rows=48, max_cols=48, max_nnz=150), k_dense=st.sampled_from([8, 24]))
def test_sddmm_flash_correct_for_arbitrary_structure(matrix, k_dense):
    if matrix.nnz == 0:
        return
    rng = np.random.default_rng(1)
    a = rng.standard_normal((matrix.n_rows, k_dense))
    b = rng.standard_normal((matrix.n_cols, k_dense))
    result = sddmm_flash_execute(matrix, a, b, FlashSparseConfig(precision="fp16"))
    mask = matrix.to_dense() != 0
    reference = np.where(mask, a @ b.T, 0.0)
    np.testing.assert_allclose(result.output.to_dense(), reference, rtol=6e-2, atol=6e-2)
    cost = sddmm_flash_cost(matrix, k_dense, FlashSparseConfig(precision="fp16"))
    assert cost.as_dict() == result.counter.as_dict()


@settings(max_examples=30, deadline=None)
@given(matrix=sparse_matrices(max_rows=96, max_cols=96, max_nnz=300), n_dense=st.sampled_from([32, 128]))
def test_8x1_never_needs_more_mma_or_bytes_than_16x1(matrix, n_dense):
    """The central claim, as an invariant over arbitrary sparse structures."""
    if matrix.nnz == 0:
        return
    flash = spmm_flash_cost(matrix, n_dense, FlashSparseConfig(precision="fp16"))
    v16 = spmm_tcu16_cost(
        matrix, n_dense, FlashSparseConfig(precision="fp16", swap_and_transpose=False)
    )
    assert flash.total_mma <= v16.total_mma
    assert flash.bytes_read <= v16.bytes_read


@settings(max_examples=25, deadline=None)
@given(matrix=sparse_matrices(max_rows=64, max_cols=64, max_nnz=250), n_dense=st.sampled_from([16, 64]))
def test_counters_are_internally_consistent(matrix, n_dense):
    counter = spmm_flash_cost(matrix, n_dense, FlashSparseConfig(precision="fp16"))
    assert counter.transaction_bytes_moved >= counter.bytes_read
    assert counter.footprint_read_bytes <= counter.bytes_read
    assert counter.footprint_write_bytes <= counter.bytes_written
    assert counter.total_mma * 2 * 16 * 8 * 8 == counter.mma_flops()


# ---------------------------------------------------------------------------
# The SpMM engine's three independences: every output row is accumulated from
# its own entries only and every output column from its own column of B, so
# any shard cut, any operand coalescing and any streaming knob must be
# bit-identical to the one-shot run — not merely close.
# ---------------------------------------------------------------------------
WIDTHS = (1, 7, 16, 33)


@st.composite
def spmm_cases(draw):
    """(format, precision, quantised B of all WIDTHS side by side) over a
    random CSR with empty windows, a partial tail window and one hub window,
    in fp16 / tf32 and vector size 8 / 16."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    n_rows = 16 * int(rng.integers(4, 8)) + int(rng.integers(1, 16))  # tail window
    n_cols = int(rng.integers(20, 120))
    dense = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.06)
    dense[16:48] = 0.0  # empty windows at either vector size
    dense[:3] = rng.standard_normal((3, n_cols))  # hub: every column is a vector
    csr = CSRMatrix.from_dense(dense)
    precision = Precision(draw(st.sampled_from(["fp16", "tf32"])))
    fmt_cls = draw(st.sampled_from([MEBCRSMatrix, SGT16Matrix]))
    fmt = fmt_cls.from_csr(csr, precision=precision)
    b_q = quantize(rng.standard_normal((n_cols, sum(WIDTHS))), precision)
    return csr, fmt, precision, b_q


def _panels(b_q):
    """``b_q`` cut into contiguous panels of WIDTHS, with their column spans."""
    bounds = np.cumsum((0,) + WIDTHS)
    return [
        (lo, hi, np.ascontiguousarray(b_q[:, lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=spmm_cases(), target=st.integers(min_value=1, max_value=60))
def test_spmm_any_window_aligned_cut_is_bit_identical_to_one_shot(case, target):
    _, fmt, precision, b_q = case
    op = SHARD_OPS["spmm"]
    ranges = window_aligned_ranges(fmt.blocks_as_arrays().window_offsets, target)
    for _, _, panel in _panels(b_q):
        out = np.zeros((fmt.shape[0], panel.shape[1]), dtype=np.float32)
        for r in ranges:
            sliced = op.slice(fmt, r, None, None)
            outputs, _ = op.run(sliced, (panel,), {"precision": precision.value})
            op.place(out, sliced, outputs)
        np.testing.assert_array_equal(out, spmm_batched(fmt, panel, precision))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=spmm_cases())
def test_spmm_columns_do_not_depend_on_their_neighbours(case):
    """What ``Server`` relies on when it hstacks same-matrix operands: a
    panel's bits are the same solo, coalesced, or sliced out of a wider run."""
    _, fmt, precision, b_q = case
    coalesced = spmm_batched(fmt, b_q, precision)
    for lo, hi, panel in _panels(b_q):
        np.testing.assert_array_equal(spmm_batched(fmt, panel, precision), coalesced[:, lo:hi])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    case=spmm_cases(),
    block_chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
    workers=st.integers(min_value=1, max_value=4),
)
def test_spmm_streaming_knobs_are_bit_identical_to_one_shot(case, block_chunk, workers):
    csr, fmt, precision, b_q = case
    if isinstance(fmt, MEBCRSMatrix):
        execute, cfg = spmm_flash_execute, {"precision": precision}
    else:
        execute, cfg = spmm_tcu16_execute, {"precision": precision, "swap_and_transpose": False}
    for _, _, panel in _panels(b_q):
        base = execute(csr, panel, FlashSparseConfig(**cfg))
        knobbed = execute(
            csr, panel, FlashSparseConfig(block_chunk=block_chunk, workers=workers, **cfg)
        )
        np.testing.assert_array_equal(knobbed.values, base.values)
        assert knobbed.counter.as_dict() == base.counter.as_dict()
