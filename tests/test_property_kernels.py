"""Property-based tests for the kernels and the memory/MMA substrate."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import (
    composed_layer,
    csr_by_slot_expansion,
    edge_values_by_search,
    lanes_by_sort,
    run_sharded,
)

from repro.formats.blocked import BlockedVectorFormat
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
from repro.kernels import engine
from repro.kernels.engine import sddmm_batched, spmm_batched
from repro.kernels.sddmm_flash import sddmm_flash_cost, sddmm_flash_execute
from repro.kernels.sddmm_tcu16 import sddmm_tcu16_execute
from repro.kernels.spmm_flash import spmm_flash_cost, spmm_flash_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_cost, spmm_tcu16_execute
from repro.precision.types import Precision, quantize
from repro.serve.program import gather_edge_values

from test_property_formats import sparse_matrices


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


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
        matrix, n_dense, FlashSparseConfig(precision="fp16")
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
    assert set(counter.mma_invocations) <= {("m16n8k8", "fp16")}  # one MMA shape


# ---------------------------------------------------------------------------
# The engine's independences: every SpMM output row is accumulated from its
# own entries only and every output column from its own column of B; every
# SDDMM entry is computed from its own two dense rows only.  So any shard
# cut, any operand coalescing and any entry chunk must be bit-identical to
# the one-shot run — not merely close.
# ---------------------------------------------------------------------------
WIDTHS = (1, 7, 16, 33)
K_DENSE = (1, 7, 32, 33)


@st.composite
def blocked_formats(draw):
    """``(rng, csr, fmt, precision)`` over a random CSR with empty windows, a
    partial tail window, one hub window, a few explicit stored zeros (every
    other one ``-0.0``) and a few values that underflow to zero in fp16 (CSR
    entries without a lane), in fp16 / tf32 and vector size 8 / 16."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    n_rows = 16 * int(rng.integers(4, 8)) + int(rng.integers(1, 16))  # tail window
    n_cols = int(rng.integers(20, 120))
    dense = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.06)
    dense[16:48] = 0.0  # empty windows at either vector size
    dense[:3] = rng.standard_normal((3, n_cols))  # hub: every column is a vector
    dense[rng.random((n_rows, n_cols)) < 0.05] *= 1e-9
    csr = CSRMatrix.from_dense(dense)
    data = csr.data.copy()
    zeros = rng.random(csr.nnz) < 0.03  # explicit stored zeros
    data[zeros] = 0.0
    data[zeros & (np.arange(csr.nnz) % 2 == 1)] = -0.0
    csr = CSRMatrix(csr.indptr, csr.indices, data, csr.shape)
    precision = Precision(draw(st.sampled_from(["fp16", "tf32"])))
    fmt_cls = draw(st.sampled_from([MEBCRSMatrix, SGT16Matrix]))
    return rng, csr, fmt_cls.from_csr(csr, precision=precision), precision


@st.composite
def entry_map_cases(draw):
    """``(csr, fmt)``: a :func:`blocked_formats` translation, or the SDDMM
    output over its pattern with some rows of A zeroed, so that some
    outputs are exactly zero (entries the lane view and ``to_csr`` drop)."""
    rng, csr, fmt, precision = draw(blocked_formats())
    if draw(st.booleans()):
        a_q = quantize(rng.standard_normal((csr.shape[0], 5)), precision)
        a_q[rng.random(csr.shape[0]) < 0.3] = 0.0
        b_q = quantize(rng.standard_normal((csr.shape[1], 5)), precision)
        fmt = BlockedVectorFormat(
            partition=fmt.partition,
            vector_values=sddmm_batched(fmt, a_q, b_q, draw(st.booleans())),
            k=fmt.k,
        )
    return csr, fmt


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=entry_map_cases(), target=st.integers(min_value=1, max_value=60))
def test_every_view_of_the_format_is_a_gather_through_the_entry_map(case, target):
    """The lane view, ``to_csr`` and ``gather_edge_values`` all read
    ``partition.entry_slot``; each equals an oracle that derives the same
    view without it.  The fused layer's per-shard mask and columns, sliced
    from the CSR of the entries read back that way, are those entries'."""
    csr, fmt = case
    lanes, oracle = fmt.lanes_as_csr(), lanes_by_sort(fmt)
    for name in ("row_offsets", "columns", "values", "slot"):
        got, want = getattr(lanes, name), getattr(oracle, name)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype, name
    back, oracle_csr = fmt.to_csr(), csr_by_slot_expansion(fmt)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(back, name), getattr(oracle_csr, name)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype, name
    edges = edge_values_by_search(fmt.partition, csr, fmt.vector_values)
    np.testing.assert_array_equal(
        gather_edge_values(fmt.partition, csr.indptr, fmt.vector_values), edges
    )
    layer = engine.SHARD_OPS["layer"]
    ranges, _ = layer.plan(fmt, [np.zeros((csr.shape[1], 1))], None, 1, target)
    source = layer.lanes(engine.lane_cache(), 0, (csr.indptr, csr.indices, edges), fmt.precision)
    for r in ranges:
        sliced = layer.slice(source, r, fmt.vector_size)
        e0 = csr.indptr[sliced["row0"]]
        e1 = e0 + sliced["offsets"][-1]
        np.testing.assert_array_equal(sliced["values"], edges[e0:e1])
        np.testing.assert_array_equal(sliced["columns"], csr.indices[e0:e1])


@st.composite
def spmm_cases(draw):
    """(csr, format, precision, quantised B of all WIDTHS side by side)."""
    rng, csr, fmt, precision = draw(blocked_formats())
    b_q = quantize(rng.standard_normal((csr.shape[1], sum(WIDTHS))), precision)
    return csr, fmt, precision, b_q


@st.composite
def layer_cases(draw):
    """(csr, format, shard params, quantised [A, B, X]) for one K of K_DENSE."""
    rng, csr, fmt, precision = draw(blocked_formats())
    k = draw(st.sampled_from(K_DENSE))
    operands = [
        quantize(rng.standard_normal(shape), precision)
        for shape in ((csr.shape[0], k), (csr.shape[1], k), (csr.shape[1], 5))
    ]
    params = {"precision": precision.value, "scale": 0.5, "scale_by_mask": draw(st.booleans())}
    return csr, fmt, params, operands


def _panels(b_q):
    """``b_q`` cut into contiguous panels of WIDTHS, with their column spans."""
    bounds = np.cumsum((0,) + WIDTHS)
    return [
        (lo, hi, np.ascontiguousarray(b_q[:, lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=spmm_cases(), target=st.integers(min_value=1, max_value=60))
def test_spmm_any_window_aligned_cut_is_bit_identical_to_one_shot(case, target):
    csr, fmt, precision, b_q = case
    for _, _, panel in _panels(b_q):
        out = run_sharded(
            "spmm", fmt, csr, [panel], {"precision": precision.value}, target_blocks=target
        )
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
@given(case=layer_cases(), target=st.integers(min_value=1, max_value=60))
def test_sddmm_and_layer_any_window_aligned_cut_is_bit_identical_to_one_shot(case, target):
    csr, fmt, params, operands = case
    scores = run_sharded("sddmm", fmt, csr, operands[:2], params, group=16, target_blocks=target)
    np.testing.assert_array_equal(
        _bits(scores), _bits(sddmm_batched(fmt, *operands[:2], params["scale_by_mask"]))
    )
    rows = run_sharded("layer", fmt, csr, operands, params, target_blocks=target)
    composed = composed_layer(
        csr, *operands, params["scale"], params["scale_by_mask"], params["precision"], type(fmt)
    )
    np.testing.assert_array_equal(rows, composed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=layer_cases())
def test_sddmm_and_layer_entry_chunk_is_bit_identical_to_one_shot(case):
    """The chunk is cache sizing only: one entry, seven entries or
    everything per gather compute the same bits."""
    csr, fmt, params, operands = case
    k = operands[0].shape[1]
    results = []
    for entries in (1, 7, 1 << 30):
        with mock.patch.object(engine, "_ENTRY_CHUNK_BYTES", entries * 8 * k):
            results.append(
                (
                    sddmm_batched(fmt, *operands[:2], params["scale_by_mask"]),
                    run_sharded("layer", fmt, csr, operands, params),
                )
            )
    for scores, rows in results[1:]:
        np.testing.assert_array_equal(scores, results[0][0])
        np.testing.assert_array_equal(rows, results[0][1])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=blocked_formats(), width=st.sampled_from(WIDTHS))
def test_granularity_moves_cost_never_bits(case, width):
    """Equation (1) is an identity, and the batched engine works at stored
    nonzeros: the 8×1 and the 16×1 entry points return the same bits for
    SpMM and, compared as CSR, for SDDMM."""
    rng, csr, _, precision = case
    config = FlashSparseConfig(precision=precision)
    a = rng.standard_normal((csr.shape[0], width))
    b = rng.standard_normal((csr.shape[1], width))
    np.testing.assert_array_equal(
        spmm_flash_execute(csr, b, config).values, spmm_tcu16_execute(csr, b, config).values
    )
    flash = sddmm_flash_execute(csr, a, b, config).to_csr()
    tcu16 = sddmm_tcu16_execute(csr, a, b, config).to_csr()
    for array in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(flash, array), getattr(tcu16, array))
