"""FlashSparse SDDMM with the swap-and-transpose MMA strategy (Section 3.4).

SDDMM computes, for every nonzero position ``(i, j)`` of a sparse sampling
matrix S, the dot product of row ``i`` of a dense matrix A (shape ``M × K``)
and row ``j`` of a dense matrix B (shape ``Ncols × K`` — i.e. the column-major
layout of ``K × Ncols`` the paper requires).  In attention-based GNNs this is
the edge-attention computation whose output feeds the subsequent SpMM.

With the swap-and-transpose strategy the sparse output TC block is 8×16 — a
window of 8 rows times 16 nonzero-vector columns — instead of the 16×8 block
of the 16×1 approaches, which both halves the number of output blocks per
nonzero vector and doubles the dense columns amortised per MMA.  The result
tile arrives transposed/column-major in registers, so the kernel reproduces
Algorithm 1's output splitting into row-major 8×4 (TF32) or 8×8 (FP16)
sub-tiles that the subsequent SpMM can consume directly.
"""

from __future__ import annotations

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.gpu.counters import CostCounter
from repro.gpu.device import WARP_SIZE
from repro.gpu.mma import default_shape, mma_execute_swapped
from repro.kernels.common import FlashSparseConfig, SddmmKernelResult, resolve_flash_format
from repro.kernels.engine import sddmm_batched
from repro.perfmodel.model import KernelProfile, sddmm_useful_flops
from repro.precision.types import Precision, element_bytes, quantize
from repro.utils.validation import check_dense_matrix

#: Performance profile of the FlashSparse SDDMM kernel.
FLASH_SDDMM_PROFILE = KernelProfile(
    name="FlashSparse-SDDMM",
    tcu_efficiency=0.30,
    cuda_efficiency=0.60,
    memory_efficiency=0.70,
    l2_efficiency=0.70,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="8x1 swap-and-transpose SDDMM with split output tiles",
)

#: Nonzero vectors covered by one sparse output TC block (the tile is 8×16).
VECTORS_PER_OUTPUT_BLOCK = 16
#: Auxiliary index work per (output block, K-chunk).
INDEX_OPS_PER_BLOCK_CHUNK = 16


def _ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


def _as_mebcrs(mask: MEBCRSMatrix | BlockedVectorFormat | CSRMatrix, config: FlashSparseConfig) -> BlockedVectorFormat:
    return resolve_flash_format(mask, config, "SDDMM")


# ---------------------------------------------------------------------------
# Algorithm 1: output splitting
# ---------------------------------------------------------------------------
def algorithm1_offsets(tid: int, sub_block: str = "8x4") -> int:
    """Target offset of a thread's ``c0`` in the split output (Algorithm 1).

    Reproduces lines 2–8 of the paper's Algorithm 1: given the lane id, the
    linear offset (in elements) at which the thread writes its first
    accumulator value into the row-major split output.
    """
    if not 0 <= tid < WARP_SIZE:
        raise ValueError("tid must be a warp lane id (0..31)")
    if sub_block == "8x8":
        return (tid % 4) * 2 * 8 + (tid // 4)
    if sub_block == "8x4":
        k = 1 if tid > 15 else 0
        return (tid % 4) * 2 * 4 + (tid // 4) + (k * 32) - (k * 4)
    raise ValueError("sub_block must be '8x4' or '8x8'")


def split_output_tile(tile: np.ndarray, precision: Precision | str) -> list[np.ndarray]:
    """Split an 8×16 output TC block into the sub-tiles stored for SpMM.

    TF32 SpMM consumes 8×4 sparse blocks, so the tile is split into four 8×4
    tiles; FP16 SpMM consumes 8×8 blocks, giving two 8×8 tiles (Figure 9).
    """
    tile = np.asarray(tile)
    if tile.shape != (8, VECTORS_PER_OUTPUT_BLOCK):
        raise ValueError(f"output tile must be 8x{VECTORS_PER_OUTPUT_BLOCK}, got {tile.shape}")
    precision = Precision(precision)
    width = 8 if precision is Precision.FP16 else 4
    return [tile[:, j : j + width].copy() for j in range(0, VECTORS_PER_OUTPUT_BLOCK, width)]


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------
def _set_footprints(
    counter: CostCounter,
    fmt: BlockedVectorFormat,
    n_rows: int,
    n_cols: int,
    k_dense: int,
    precision: Precision,
) -> None:
    """Record the unique DRAM footprint: both dense inputs + the sparse structure."""
    elem = element_bytes(precision)
    dense_bytes = (n_rows + n_cols) * k_dense * elem
    structure_bytes = (fmt.num_windows + 1 + fmt.num_nonzero_vectors) * 4
    read_fp = min(counter.bytes_read, dense_bytes + structure_bytes)
    counter.set_read_footprint(read_fp)
    counter.set_write_footprint(counter.bytes_written)


def sddmm_flash_execute(
    mask: MEBCRSMatrix | BlockedVectorFormat | CSRMatrix,
    a: np.ndarray,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    scale_by_mask: bool = False,
) -> SddmmKernelResult:
    """Execute SDDMM: ``out[i, j] = <a[i, :], b[j, :]>`` at the mask's nonzeros.

    Parameters
    ----------
    mask:
        Sparse sampling matrix (its nonzero pattern selects the outputs).
    a:
        Dense matrix of shape ``(mask.n_rows, K)`` (row-major).
    b:
        Dense matrix of shape ``(mask.n_cols, K)`` — the column-major layout
        of the paper's ``K × Ncols`` right operand.
    scale_by_mask:
        When set, each output is additionally multiplied by the mask's stored
        value at that position (the general SDDMM definition); by default the
        outputs are the raw sampled dot products, as used by GNN attention.
    """
    config = config or FlashSparseConfig()
    if not config.swap_and_transpose:
        raise ValueError("sddmm_flash_execute implements the 8x1 strategy; use sddmm_tcu16_execute for 16x1")
    fmt = _as_mebcrs(mask, config)
    n_rows, n_cols = fmt.shape
    a = check_dense_matrix(a, "a", n_rows=n_rows)
    b = check_dense_matrix(b, "b", n_rows=n_cols)
    if a.shape[1] != b.shape[1]:
        raise ValueError("a and b must share the inner dimension K")
    k_dense = a.shape[1]
    precision = config.precision
    shape = default_shape(precision.value)
    mma_k = shape.k
    n_chunks = _ceil_div(k_dense, mma_k)
    elem = element_bytes(precision)

    a_q = quantize(a, precision)
    b_q = quantize(b, precision)
    if config.engine == "batched" and k_dense > 0:
        out_values = sddmm_batched(fmt, a_q, b_q, scale_by_mask=scale_by_mask)
        counter = sddmm_flash_cost(fmt, k_dense, config)
    else:
        out_values, counter = _sddmm_reference(fmt, a_q, b_q, config, shape, scale_by_mask)
    output = BlockedVectorFormat(
        partition=fmt.partition,
        vector_values=out_values,
        k=fmt.k,
        precision=Precision.FP32,
        format_name=f"{fmt.format_name}-sddmm-out",
    )
    useful = sddmm_useful_flops(fmt.nnz, k_dense)
    return SddmmKernelResult(
        output=output,
        counter=counter,
        kernel="flashsparse_sddmm",
        useful_flops=useful,
        meta={
            "precision": precision.value,
            "vector_size": 8,
            "mma_shape": shape.name,
            "k_dense": k_dense,
            "scale_by_mask": scale_by_mask,
            "engine": config.engine if k_dense > 0 else "reference",
        },
    )


def _sddmm_reference(
    fmt: BlockedVectorFormat,
    a_q: np.ndarray,
    b_q: np.ndarray,
    config: FlashSparseConfig,
    shape,
    scale_by_mask: bool,
) -> tuple[np.ndarray, CostCounter]:
    """The per-(window, block, chunk) emulation loop — the engine's oracle."""
    precision = config.precision
    n_rows, n_cols = fmt.shape
    k_dense = a_q.shape[1]
    mma_k = shape.k
    n_chunks = _ceil_div(k_dense, mma_k)
    elem = element_bytes(precision)
    counter = CostCounter()
    out_values = np.zeros_like(fmt.vector_values, dtype=np.float32)
    mask_pattern = np.asarray(fmt.vector_values, dtype=np.float64) != 0.0

    for w in range(fmt.num_windows):
        row0, row1 = fmt.partition.window_row_range(w)
        rows_here = row1 - row0
        start, end = fmt.window_vector_range(w)
        if start == end:
            continue
        a_rows = np.zeros((8, k_dense), dtype=np.float32)
        a_rows[:rows_here] = a_q[row0:row1]
        n_vecs = end - start
        for blk_start in range(0, n_vecs, VECTORS_PER_OUTPUT_BLOCK):
            vec_lo = start + blk_start
            vec_hi = min(vec_lo + VECTORS_PER_OUTPUT_BLOCK, end)
            cols = fmt.partition.vector_cols[vec_lo:vec_hi].astype(np.int64)
            width = cols.shape[0]
            b_rows = np.zeros((VECTORS_PER_OUTPUT_BLOCK, k_dense), dtype=np.float32)
            b_rows[:width] = b_q[cols]
            acc = np.zeros((8, VECTORS_PER_OUTPUT_BLOCK), dtype=np.float32)
            for c in range(n_chunks):
                k0 = c * mma_k
                k1 = min(k0 + mma_k, k_dense)
                a_tile = np.zeros((8, mma_k), dtype=np.float64)
                a_tile[:, : k1 - k0] = a_rows[:, k0:k1]
                b_tile = np.zeros((mma_k, VECTORS_PER_OUTPUT_BLOCK), dtype=np.float64)
                b_tile[: k1 - k0, :] = b_rows[:, k0:k1].T
                acc = mma_execute_swapped(a_tile, b_tile, acc, shape, counter=None)
            # Algorithm 1: the accumulator arrives column-major; splitting it
            # into row-major sub-tiles is a pure layout change, verified here
            # by round-tripping through the split.
            sub_tiles = split_output_tile(acc, precision)
            acc = np.concatenate(sub_tiles, axis=1)
            # Write back only the sampled (nonzero) positions.
            block_pattern = mask_pattern[vec_lo:vec_hi].T  # (8, width)
            sampled = np.where(block_pattern, acc[:, :width], 0.0)
            if scale_by_mask:
                sampled = sampled * np.asarray(fmt.vector_values[vec_lo:vec_hi], dtype=np.float32).T
            out_values[vec_lo:vec_hi] = sampled.T

            # --- cost accounting per output block ---------------------------
            counter.add_mma(shape.name, precision.value, n_chunks)
            # Dense A tile: 8 rows of mma_k elements per chunk.
            a_row_bytes = mma_k * elem
            counter.add_load(
                32,
                _ceil_div(a_row_bytes, 32) * 8 * n_chunks,
                useful_bytes=a_row_bytes * 8 * n_chunks,
            )
            # Dense B tile: one gathered row per present vector per chunk.
            counter.add_load(
                32,
                _ceil_div(a_row_bytes, 32) * width * n_chunks,
                useful_bytes=a_row_bytes * width * n_chunks,
            )
            counter.add_index_ops(INDEX_OPS_PER_BLOCK_CHUNK * n_chunks)
            # Output store: the present vectors' 8 values each, FP32.
            out_bytes = width * 8 * 4
            counter.add_store(32, _ceil_div(out_bytes, 32), useful_bytes=out_bytes)
        counter.add_warps(_ceil_div(n_vecs, VECTORS_PER_OUTPUT_BLOCK))

    _set_footprints(counter, fmt, n_rows, n_cols, k_dense, precision)
    return out_values, counter


def sddmm_flash_cost(
    mask: MEBCRSMatrix | BlockedVectorFormat | CSRMatrix,
    k_dense: int,
    config: FlashSparseConfig | None = None,
) -> CostCounter:
    """Analytic cost of the FlashSparse SDDMM (matches the execute path)."""
    config = config or FlashSparseConfig()
    if not config.swap_and_transpose:
        raise ValueError("sddmm_flash_cost implements the 8x1 strategy; use sddmm_tcu16_cost for 16x1")
    fmt = _as_mebcrs(mask, config)
    precision = config.precision
    shape = default_shape(precision.value)
    mma_k = shape.k
    k_dense = int(k_dense)
    if k_dense <= 0:
        raise ValueError("k_dense must be positive")
    n_chunks = _ceil_div(k_dense, mma_k)
    elem = element_bytes(precision)

    counts = fmt.partition.vectors_per_window.astype(np.int64)
    nonempty = counts > 0
    widths, _, first_block = fmt.partition.block_widths(VECTORS_PER_OUTPUT_BLOCK)
    blocks_per_window = np.diff(first_block)
    num_blocks = widths.shape[0]
    total_vectors = int(counts.sum())

    counter = CostCounter()
    counter.add_mma(shape.name, precision.value, num_blocks * n_chunks)

    a_row_bytes = mma_k * elem
    a_row_tx = _ceil_div(a_row_bytes, 32)
    counter.add_load(
        32,
        a_row_tx * 8 * num_blocks * n_chunks,
        useful_bytes=a_row_bytes * 8 * num_blocks * n_chunks,
    )
    counter.add_load(
        32,
        a_row_tx * total_vectors * n_chunks,
        useful_bytes=a_row_bytes * total_vectors * n_chunks,
    )
    counter.add_index_ops(INDEX_OPS_PER_BLOCK_CHUNK * num_blocks * n_chunks)

    # Output stores: per block, the present vectors' 8 FP32 values — the
    # per-block byte counts come straight off the block-width histogram.
    store_bytes = widths * 8 * 4
    if total_vectors:
        counter.add_store_bulk(32, -(-store_bytes // 32), store_bytes)

    counter.add_warps(int(blocks_per_window[nonempty].sum()))
    _set_footprints(counter, fmt, fmt.shape[0], fmt.shape[1], k_dense, precision)
    return counter
