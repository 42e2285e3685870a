"""16×1-vector TCU SpMM — the granularity used by TC-GNN and DTC-SpMM.

This kernel follows the design of Section 2.2 / Figure 2: the sparse matrix
is partitioned into 16×1 nonzero vectors (window height 16), every ``k``
vectors form a 16×k sparse TC block that is the *left* MMA operand, and each
MMA covers only ``n = 8`` columns of the dense matrix (16 with the WMMA
variant).  It serves two purposes:

* the ablation baseline of Figure 14 (same FlashSparse machinery, larger
  vector), and
* the computational core of the DTC-SpMM and TC-GNN baseline models in
  :mod:`repro.baselines`, which add their own overheads on top.
"""

from __future__ import annotations

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.gpu.counters import CostCounter
from repro.gpu.mma import (
    MMA_M16N8K8_FP16,
    MMA_M16N8K8_TF32,
    MMAShape,
    WMMA_M16N16K8_TF32,
    mma_execute,
)
from repro.kernels.common import FlashSparseConfig, SpmmKernelResult, resolve_tcu16_format
from repro.kernels.engine import spmm_batched
from repro.perfmodel.model import KernelProfile, spmm_useful_flops
from repro.precision.types import Precision, element_bytes, quantize
from repro.utils.validation import check_dense_matrix

#: Profile of the plain 16x1 kernel (ablation baseline).
TCU16_SPMM_PROFILE = KernelProfile(
    name="TCU-16x1-SpMM",
    tcu_efficiency=0.35,
    cuda_efficiency=0.60,
    memory_efficiency=0.72,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="16x1 vector granularity, sparse block as the MMA left operand",
)

#: Auxiliary index work per (block, tile) — same bookkeeping as FlashSparse.
INDEX_OPS_PER_BLOCK_TILE = 8


def _ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


def instruction_for(precision: Precision, api: str = "mma") -> MMAShape:
    """MMA/WMMA instruction used by the 16×1 approaches.

    DTC-SpMM uses ``mma.m16n8k8`` TF32, TC-GNN uses WMMA ``m16n16k8`` TF32;
    the FP16 ablation baseline uses ``mma.m16n8k8`` FP16.
    """
    if api == "wmma":
        if precision is not Precision.TF32:
            raise ValueError("the WMMA path models TC-GNN, which is TF32 only")
        return WMMA_M16N16K8_TF32
    if precision is Precision.FP16:
        return MMA_M16N8K8_FP16
    if precision is Precision.TF32:
        return MMA_M16N8K8_TF32
    raise ValueError(f"unsupported precision {precision}")


def _as_sgt16(matrix: SGT16Matrix | BlockedVectorFormat | CSRMatrix, precision: Precision) -> BlockedVectorFormat:
    return resolve_tcu16_format(matrix, precision, "kernel")


def _b_row_transactions(precision: Precision, dense_tile: int) -> tuple[int, int]:
    """(transactions, useful bytes) per gathered B row for a ``dense_tile`` wide tile.

    Without the swap-and-transpose trick the dense tile is only 8 columns
    wide, so an FP16 row segment is 16 bytes — half of the minimum 32-byte
    transaction is wasted.
    """
    useful = dense_tile * element_bytes(precision)
    transactions = _ceil_div(useful, 32)
    return transactions, useful


def _set_footprints(
    counter: CostCounter,
    fmt: BlockedVectorFormat,
    n_cols: int,
    n_dense: int,
    precision: Precision,
) -> None:
    """Record the unique DRAM footprint (format arrays + dense B + output)."""
    b_array_bytes = n_cols * n_dense * element_bytes(precision)
    read_fp = min(counter.bytes_read, fmt.memory_footprint_bytes() + b_array_bytes)
    counter.set_read_footprint(read_fp)
    counter.set_write_footprint(counter.bytes_written)


def spmm_tcu16_execute(
    a: SGT16Matrix | BlockedVectorFormat | CSRMatrix,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    api: str = "mma",
) -> SpmmKernelResult:
    """Execute C = A @ B with the 16×1-vector TCU kernel."""
    config = config or FlashSparseConfig(swap_and_transpose=False)
    precision = config.precision
    shape = instruction_for(precision, api)
    fmt = _as_sgt16(a, precision)
    if fmt.k != shape.k:
        raise ValueError(
            f"format block width k={fmt.k} does not match instruction {shape.name} (k={shape.k})"
        )
    n_rows, n_cols = fmt.shape
    b = check_dense_matrix(b, "b", n_rows=n_cols)
    n_dense = b.shape[1]
    dense_tile = shape.n
    n_tiles = _ceil_div(n_dense, dense_tile)
    k = shape.k

    b_q = quantize(b, precision)
    if config.engine == "batched" and n_dense > 0:
        # The swap-and-transpose identity makes the 16×1 numerics identical
        # in shape to the 8×1 path, so both share the batched engine's
        # row-wise accumulate.
        out = spmm_batched(fmt, b_q, precision)
        counter = spmm_tcu16_cost(fmt, n_dense, config, api)
    else:
        out, counter = _spmm_reference(fmt, b_q, config, shape)
    useful = spmm_useful_flops(fmt.nnz, n_dense)
    return SpmmKernelResult(
        values=out,
        counter=counter,
        kernel="tcu16_spmm" if api == "mma" else "tcu16_wmma_spmm",
        useful_flops=useful,
        meta={
            "precision": precision.value,
            "vector_size": 16,
            "mma_shape": shape.name,
            "api": api,
            "n_dense": n_dense,
            "engine": config.engine if n_dense > 0 else "reference",
        },
    )


def _spmm_reference(
    fmt: BlockedVectorFormat,
    b_q: np.ndarray,
    config: FlashSparseConfig,
    shape: MMAShape,
) -> tuple[np.ndarray, CostCounter]:
    """The per-(window, block, tile) emulation loop — the engine's oracle."""
    precision = config.precision
    k = shape.k
    dense_tile = shape.n
    n_rows, n_cols = fmt.shape
    n_dense = b_q.shape[1]
    n_tiles = _ceil_div(n_dense, dense_tile)
    counter = CostCounter()
    out = np.zeros((n_rows, n_dense), dtype=np.float32)
    elem = element_bytes(precision)
    b_tx_per_row, b_useful_per_row = _b_row_transactions(precision, dense_tile)

    for w in range(fmt.num_windows):
        row0, row1 = fmt.partition.window_row_range(w)
        rows_here = row1 - row0
        start, end = fmt.window_vector_range(w)
        if start == end:
            continue
        window_acc = np.zeros((16, n_dense), dtype=np.float32)
        for blk in range(fmt.window_blocks(w)):
            cols = fmt.block_columns(w, blk).astype(np.int64)
            width = cols.shape[0]
            values = fmt.block_values(w, blk)  # (16, width)
            a_tile = np.zeros((16, k), dtype=np.float64)
            a_tile[:, :width] = values
            b_rows = np.zeros((k, n_dense), dtype=np.float32)
            b_rows[:width] = b_q[cols]
            for t in range(n_tiles):
                j0 = t * dense_tile
                j1 = min(j0 + dense_tile, n_dense)
                b_tile = np.zeros((k, dense_tile), dtype=np.float64)
                b_tile[:, : j1 - j0] = b_rows[:, j0:j1]
                acc = mma_execute(a_tile, b_tile, None, shape, counter=None)
                window_acc[:, j0:j1] += acc[:, : j1 - j0]
            # Cost accounting per block across all tiles.
            a_bytes = 16 * width * elem
            counter.add_mma(shape.name, precision.value, n_tiles)
            counter.add_load(32, _ceil_div(a_bytes, 32) * n_tiles, useful_bytes=a_bytes * n_tiles)
            counter.add_load(
                32,
                b_tx_per_row * width * n_tiles,
                useful_bytes=b_useful_per_row * width * n_tiles,
            )
            counter.add_index_ops(INDEX_OPS_PER_BLOCK_TILE * n_tiles)
        out[row0:row1] = window_acc[:rows_here]
        out_bytes = rows_here * n_dense * 4
        counter.add_store(32, _ceil_div(out_bytes, 32), useful_bytes=out_bytes)
        counter.add_warps(n_tiles)

    _set_footprints(counter, fmt, n_cols, n_dense, precision)
    return out, counter


def spmm_tcu16_cost(
    a: SGT16Matrix | BlockedVectorFormat | CSRMatrix,
    n_dense: int,
    config: FlashSparseConfig | None = None,
    api: str = "mma",
) -> CostCounter:
    """Analytic cost of the 16×1 SpMM (matches :func:`spmm_tcu16_execute`)."""
    config = config or FlashSparseConfig(swap_and_transpose=False)
    precision = config.precision
    shape = instruction_for(precision, api)
    fmt = _as_sgt16(a, precision)
    if fmt.k != shape.k:
        raise ValueError(
            f"format block width k={fmt.k} does not match instruction {shape.name} (k={shape.k})"
        )
    n_dense = int(n_dense)
    if n_dense <= 0:
        raise ValueError("n_dense must be positive")
    dense_tile = shape.n
    n_tiles = _ceil_div(n_dense, dense_tile)
    k = shape.k
    elem = element_bytes(precision)
    b_tx_per_row, b_useful_per_row = _b_row_transactions(precision, dense_tile)

    counts = fmt.partition.vectors_per_window.astype(np.int64)
    nonempty = counts > 0
    widths, _, _ = fmt.partition.block_widths(k)
    num_blocks = widths.shape[0]
    total_vectors = int(counts.sum())

    counter = CostCounter()
    counter.add_mma(shape.name, precision.value, num_blocks * n_tiles)

    a_bytes = 16 * widths * elem
    counter.add_load_bulk(32, (-(-a_bytes // 32)) * n_tiles, a_bytes * n_tiles)

    counter.add_load(
        32,
        b_tx_per_row * total_vectors * n_tiles,
        useful_bytes=b_useful_per_row * total_vectors * n_tiles,
    )
    counter.add_index_ops(INDEX_OPS_PER_BLOCK_TILE * num_blocks * n_tiles)

    window_rows = np.full(fmt.num_windows, 16, dtype=np.int64)
    if fmt.num_windows:
        window_rows[-1] = fmt.shape[0] - (fmt.num_windows - 1) * 16
    out_bytes_arr = window_rows[nonempty] * n_dense * 4
    if out_bytes_arr.size:
        counter.add_store_bulk(32, -(-out_bytes_arr // 32), out_bytes_arr)
    counter.add_warps(int(nonempty.sum()) * n_tiles)
    _set_footprints(counter, fmt, fmt.shape[1], n_dense, precision)
    return counter
