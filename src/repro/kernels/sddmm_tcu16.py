"""16×1-vector TCU SDDMM — the granularity used by TC-GNN.

Without the swap-and-transpose strategy the sparse output TC block is 16×8:
a 16-row window times 8 nonzero-vector columns.  Per output block the kernel
issues ``ceil(K / k)`` MMAs whose left operand is the 16×k slice of the dense
matrix A and whose right operand is the k×8 gathered slice of Bᵀ.  The 8×1
FlashSparse variant covers twice as many vectors per block, which is where
the SDDMM ablation gains of Figure 14 come from.
"""

from __future__ import annotations

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.gpu.counters import CostCounter
from repro.gpu.mma import MMA_M16N8K8_FP16, MMA_M16N8K8_TF32, MMAShape, mma_execute
from repro.kernels.common import FlashSparseConfig, SddmmKernelResult, resolve_tcu16_format
from repro.kernels.engine import sddmm_batched
from repro.perfmodel.model import KernelProfile, sddmm_useful_flops
from repro.precision.types import Precision, element_bytes, quantize
from repro.utils.validation import check_dense_matrix

#: Profile of the 16x1 SDDMM kernel (ablation baseline).
TCU16_SDDMM_PROFILE = KernelProfile(
    name="TCU-16x1-SDDMM",
    tcu_efficiency=0.30,
    cuda_efficiency=0.60,
    memory_efficiency=0.70,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="16x1 vector granularity SDDMM",
)

#: Nonzero vectors covered by one sparse output TC block (the tile is 16×8).
VECTORS_PER_OUTPUT_BLOCK = 8
#: Auxiliary index work per (output block, K-chunk).
INDEX_OPS_PER_BLOCK_CHUNK = 16


def _ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


def _instruction_for(precision: Precision) -> MMAShape:
    if precision is Precision.FP16:
        return MMA_M16N8K8_FP16
    if precision is Precision.TF32:
        return MMA_M16N8K8_TF32
    raise ValueError(f"unsupported precision {precision}")


def _as_sgt16(mask: SGT16Matrix | BlockedVectorFormat | CSRMatrix, precision: Precision) -> BlockedVectorFormat:
    return resolve_tcu16_format(mask, precision, "SDDMM")


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


def sddmm_tcu16_execute(
    mask: SGT16Matrix | BlockedVectorFormat | CSRMatrix,
    a: np.ndarray,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    scale_by_mask: bool = False,
) -> SddmmKernelResult:
    """Execute SDDMM at 16×1 granularity (see :func:`sddmm_flash_execute`)."""
    config = config or FlashSparseConfig(swap_and_transpose=False)
    precision = config.precision
    shape = _instruction_for(precision)
    fmt = _as_sgt16(mask, precision)
    n_rows, n_cols = fmt.shape
    a = check_dense_matrix(a, "a", n_rows=n_rows)
    b = check_dense_matrix(b, "b", n_rows=n_cols)
    if a.shape[1] != b.shape[1]:
        raise ValueError("a and b must share the inner dimension K")
    k_dense = a.shape[1]
    mma_k = shape.k
    n_chunks = _ceil_div(k_dense, mma_k)
    elem = element_bytes(precision)

    a_q = quantize(a, precision)
    b_q = quantize(b, precision)
    if config.engine == "batched" and k_dense > 0:
        out_values = sddmm_batched(fmt, a_q, b_q, scale_by_mask=scale_by_mask)
        counter = sddmm_tcu16_cost(fmt, k_dense, config)
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
        kernel="tcu16_sddmm",
        useful_flops=useful,
        meta={
            "precision": precision.value,
            "vector_size": 16,
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
    shape: MMAShape,
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
        a_rows = np.zeros((16, k_dense), dtype=np.float32)
        a_rows[:rows_here] = a_q[row0:row1]
        n_vecs = end - start
        for blk_start in range(0, n_vecs, VECTORS_PER_OUTPUT_BLOCK):
            vec_lo = start + blk_start
            vec_hi = min(vec_lo + VECTORS_PER_OUTPUT_BLOCK, end)
            cols = fmt.partition.vector_cols[vec_lo:vec_hi].astype(np.int64)
            width = cols.shape[0]
            b_rows = np.zeros((VECTORS_PER_OUTPUT_BLOCK, k_dense), dtype=np.float32)
            b_rows[:width] = b_q[cols]
            acc = np.zeros((16, VECTORS_PER_OUTPUT_BLOCK), dtype=np.float32)
            for c in range(n_chunks):
                k0 = c * mma_k
                k1 = min(k0 + mma_k, k_dense)
                a_tile = np.zeros((16, mma_k), dtype=np.float64)
                a_tile[:, : k1 - k0] = a_rows[:, k0:k1]
                b_tile = np.zeros((mma_k, VECTORS_PER_OUTPUT_BLOCK), dtype=np.float64)
                b_tile[: k1 - k0, :] = b_rows[:, k0:k1].T
                acc = mma_execute(a_tile, b_tile, acc, shape, counter=None)
            block_pattern = mask_pattern[vec_lo:vec_hi].T  # (16, width)
            sampled = np.where(block_pattern, acc[:, :width], 0.0)
            if scale_by_mask:
                sampled = sampled * np.asarray(fmt.vector_values[vec_lo:vec_hi], dtype=np.float32).T
            out_values[vec_lo:vec_hi] = sampled.T

            counter.add_mma(shape.name, precision.value, n_chunks)
            a_row_bytes = mma_k * elem
            counter.add_load(
                32,
                _ceil_div(a_row_bytes, 32) * 16 * n_chunks,
                useful_bytes=a_row_bytes * 16 * n_chunks,
            )
            counter.add_load(
                32,
                _ceil_div(a_row_bytes, 32) * width * n_chunks,
                useful_bytes=a_row_bytes * width * n_chunks,
            )
            counter.add_index_ops(INDEX_OPS_PER_BLOCK_CHUNK * n_chunks)
            out_bytes = width * 16 * 4
            counter.add_store(32, _ceil_div(out_bytes, 32), useful_bytes=out_bytes)
        counter.add_warps(_ceil_div(n_vecs, VECTORS_PER_OUTPUT_BLOCK))

    _set_footprints(counter, fmt, n_rows, n_cols, k_dense, precision)
    return out_values, counter


def sddmm_tcu16_cost(
    mask: SGT16Matrix | BlockedVectorFormat | CSRMatrix,
    k_dense: int,
    config: FlashSparseConfig | None = None,
) -> CostCounter:
    """Analytic cost of the 16×1 SDDMM (matches the execute path)."""
    config = config or FlashSparseConfig(swap_and_transpose=False)
    precision = config.precision
    shape = _instruction_for(precision)
    fmt = _as_sgt16(mask, precision)
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
        a_row_tx * 16 * num_blocks * n_chunks,
        useful_bytes=a_row_bytes * 16 * num_blocks * n_chunks,
    )
    counter.add_load(
        32,
        a_row_tx * total_vectors * n_chunks,
        useful_bytes=a_row_bytes * total_vectors * n_chunks,
    )
    counter.add_index_ops(INDEX_OPS_PER_BLOCK_CHUNK * num_blocks * n_chunks)

    store_bytes = widths * 16 * 4
    if total_vectors:
        counter.add_store_bulk(32, -(-store_bytes // 32), store_bytes)

    counter.add_warps(int(blocks_per_window[nonempty].sum()))
    _set_footprints(counter, fmt, fmt.shape[0], fmt.shape[1], k_dense, precision)
    return counter
