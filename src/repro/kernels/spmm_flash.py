"""FlashSparse SpMM with the swap-and-transpose MMA strategy (Section 3.3).

The kernel walks the ME-BCRS structure window by window.  For every sparse
TC block A (8 rows × ``k`` nonzero vectors) and every 16-column tile of the
dense matrix B it:

1. gathers the ``k`` rows of B addressed by the block's column indices
   (the dense TC block B, ``k × 16``),
2. issues one swap-and-transpose MMA — the hardware instruction sees
   ``Bᵀ`` (16×k) as its left operand and ``Aᵀ`` (k×8) as its right operand
   and produces ``Cᵀ`` (16×8) —,
3. accumulates the transposed result into the 8×16 output tile of C.

The cost accounting mirrors the CUDA kernel: one MMA per (block, tile), the
sparse block A and the gathered B rows are loaded per MMA, the output tile is
written once per (window, tile), and the number of 32-byte transactions per
gathered B row comes from the thread-mapping model (1 with the
memory-efficient mapping, 2 with the direct mapping, for FP16).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.gpu.counters import CostCounter
from repro.gpu.mma import default_shape, mma_execute_swapped
from repro.kernels.common import FlashSparseConfig, SpmmKernelResult, resolve_flash_format
from repro.kernels.engine import spmm_batched
from repro.kernels.thread_mapping import b_tile_transactions, get_mapping
from repro.perfmodel.model import KernelProfile, spmm_useful_flops
from repro.precision.types import Precision, element_bytes, quantize
from repro.utils.validation import check_dense_matrix

#: Performance profile of the FlashSparse SpMM kernel.
FLASH_SPMM_PROFILE = KernelProfile(
    name="FlashSparse-SpMM",
    tcu_efficiency=0.35,
    cuda_efficiency=0.60,
    memory_efficiency=0.72,
    l2_efficiency=0.70,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="8x1 swap-and-transpose kernel with coalesced thread mapping; wide "
    "128-bit loads sustain a high fraction of L2 bandwidth",
)

#: Dense columns covered per MMA by the swap-and-transpose strategy.
DENSE_TILE_COLS = 16
#: Fixed auxiliary index work charged per (block, tile): residue modulo,
#: column-offset computation and the ME-BCRS pointer arithmetic.
INDEX_OPS_PER_BLOCK_TILE = 8


def _ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


@lru_cache(maxsize=None)
def _b_row_transactions(precision: str, coalesced: bool) -> int:
    """32-byte transactions per gathered B row, from the thread-mapping model."""
    mapping = get_mapping(Precision(precision), coalesced)
    # Use well-separated synthetic rows so transactions never merge across rows.
    rows = np.arange(mapping.k, dtype=np.int64)
    report = b_tile_transactions(mapping, row_stride_bytes=1 << 16, row_indices=rows)
    assert report.num_transactions % mapping.k == 0
    return report.num_transactions // mapping.k


def _as_mebcrs(matrix: MEBCRSMatrix | BlockedVectorFormat | CSRMatrix, config: FlashSparseConfig) -> BlockedVectorFormat:
    return resolve_flash_format(matrix, config, "SpMM")


def _add_block_tile_costs(
    counter: CostCounter,
    shape_name: str,
    precision: Precision,
    width: int,
    n_tiles: int,
    coalesced: bool,
) -> None:
    """Charge the per-(block, all tiles) loads and MMAs to ``counter``."""
    elem = element_bytes(precision)
    tx_per_row = _b_row_transactions(precision.value, coalesced)
    # Sparse TC block A: 8 x width values, contiguous in ME-BCRS.
    a_bytes = 8 * width * elem
    a_tx = _ceil_div(a_bytes, 32)
    # Dense TC block B: width gathered rows of 16 columns.
    b_useful_row = DENSE_TILE_COLS * elem
    counter.add_mma(shape_name, precision.value, n_tiles)
    counter.add_load(32, a_tx * n_tiles, useful_bytes=a_bytes * n_tiles)
    counter.add_load(
        32,
        tx_per_row * width * n_tiles,
        useful_bytes=b_useful_row * width * n_tiles,
    )
    counter.add_index_ops(INDEX_OPS_PER_BLOCK_TILE * n_tiles)


def _add_output_costs(counter: CostCounter, rows: int, n_dense: int) -> None:
    """Charge the FP32 output write-back of one window across all tiles."""
    out_bytes = rows * n_dense * 4
    counter.add_store(32, _ceil_div(out_bytes, 32), useful_bytes=out_bytes)


def _set_footprints(
    counter: CostCounter,
    fmt: BlockedVectorFormat,
    n_cols: int,
    n_dense: int,
    precision: Precision,
) -> None:
    """Record the unique DRAM footprint: the ME-BCRS arrays plus the dense B.

    Rows of B gathered repeatedly across row windows stay L2-resident on the
    real device; only the unique data has to stream from DRAM.
    """
    b_array_bytes = n_cols * n_dense * element_bytes(precision)
    read_fp = min(counter.bytes_read, fmt.memory_footprint_bytes() + b_array_bytes)
    counter.set_read_footprint(read_fp)
    counter.set_write_footprint(counter.bytes_written)


def spmm_flash_execute(
    a: MEBCRSMatrix | BlockedVectorFormat | CSRMatrix,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
) -> SpmmKernelResult:
    """Execute C = A @ B with the FlashSparse SpMM kernel.

    Parameters
    ----------
    a:
        Sparse matrix, either already in ME-BCRS or as CSR (translated on the
        fly, as the paper's preprocessing kernel would).
    b:
        Dense matrix of shape ``(a.n_cols, N)``.
    config:
        Kernel configuration (precision and thread mapping).
    """
    config = config or FlashSparseConfig()
    if not config.swap_and_transpose:
        raise ValueError("spmm_flash_execute implements the 8x1 strategy; use spmm_tcu16_execute for 16x1")
    fmt = _as_mebcrs(a, config)
    n_rows, n_cols = fmt.shape
    b = check_dense_matrix(b, "b", n_rows=n_cols)
    n_dense = b.shape[1]
    precision = config.precision
    shape = default_shape(precision.value)
    k = shape.k
    if fmt.k != k:
        raise ValueError(
            f"format block width k={fmt.k} does not match precision {precision} (expects k={k})"
        )

    b_q = quantize(b, precision)
    if config.engine == "batched" and n_dense > 0:
        # One row-wise accumulate over the format's nonzero lanes; the
        # counter comes from the closed-form cost pass, which is
        # bit-identical to the loop below.
        out = spmm_batched(fmt, b_q, precision)
        counter = spmm_flash_cost(fmt, n_dense, config)
    else:
        out, counter = _spmm_reference(fmt, b_q, config, shape)
    useful = spmm_useful_flops(fmt.nnz, n_dense)
    return SpmmKernelResult(
        values=out,
        counter=counter,
        kernel="flashsparse_spmm",
        useful_flops=useful,
        meta={
            "precision": precision.value,
            "coalesced": config.coalesced,
            "vector_size": 8,
            "mma_shape": shape.name,
            "n_dense": n_dense,
            "engine": config.engine if n_dense > 0 else "reference",
        },
    )


def _spmm_reference(
    fmt: BlockedVectorFormat,
    b_q: np.ndarray,
    config: FlashSparseConfig,
    shape,
) -> tuple[np.ndarray, CostCounter]:
    """The per-(window, block, tile) emulation loop — the engine's oracle."""
    precision = config.precision
    k = shape.k
    n_rows, n_cols = fmt.shape
    n_dense = b_q.shape[1]
    counter = CostCounter()
    out = np.zeros((n_rows, n_dense), dtype=np.float32)
    n_tiles = _ceil_div(n_dense, DENSE_TILE_COLS)

    for w in range(fmt.num_windows):
        row0, row1 = fmt.partition.window_row_range(w)
        rows_here = row1 - row0
        start, end = fmt.window_vector_range(w)
        if start == end:
            continue
        window_acc = np.zeros((8, n_dense), dtype=np.float32)
        for blk in range(fmt.window_blocks(w)):
            cols = fmt.block_columns(w, blk).astype(np.int64)
            width = cols.shape[0]
            values = fmt.block_values(w, blk)  # (8, width)
            # Zero-fill the registers of the missing residue vectors.
            a_tile = np.zeros((8, k), dtype=np.float64)
            a_tile[:, :width] = values
            b_rows = np.zeros((k, n_dense), dtype=np.float32)
            b_rows[:width] = b_q[cols]
            # One swap-and-transpose MMA per 16-column tile of B.
            for t in range(n_tiles):
                j0 = t * DENSE_TILE_COLS
                j1 = min(j0 + DENSE_TILE_COLS, n_dense)
                b_tile = np.zeros((k, DENSE_TILE_COLS), dtype=np.float64)
                b_tile[:, : j1 - j0] = b_rows[:, j0:j1]
                acc = mma_execute_swapped(a_tile, b_tile, None, shape, counter=None)
                window_acc[:, j0:j1] += acc[:, : j1 - j0]
            _add_block_tile_costs(
                counter, shape.name, precision, width, n_tiles, config.coalesced
            )
        out[row0:row1] = window_acc[:rows_here]
        _add_output_costs(counter, rows_here, n_dense)
        counter.add_warps(n_tiles)

    _set_footprints(counter, fmt, n_cols, n_dense, precision)
    return out, counter


def spmm_flash_cost(
    a: MEBCRSMatrix | BlockedVectorFormat | CSRMatrix,
    n_dense: int,
    config: FlashSparseConfig | None = None,
) -> CostCounter:
    """Cost of the FlashSparse SpMM without computing the numeric result.

    Produces exactly the counter :func:`spmm_flash_execute` would produce,
    but vectorised over the block structure so large matrices are cheap to
    sweep.
    """
    config = config or FlashSparseConfig()
    if not config.swap_and_transpose:
        raise ValueError("spmm_flash_cost implements the 8x1 strategy; use spmm_tcu16_cost for 16x1")
    fmt = _as_mebcrs(a, config)
    precision = config.precision
    shape = default_shape(precision.value)
    k = shape.k
    if fmt.k != k:
        raise ValueError(
            f"format block width k={fmt.k} does not match precision {precision} (expects k={k})"
        )
    n_dense = int(n_dense)
    if n_dense <= 0:
        raise ValueError("n_dense must be positive")
    n_tiles = _ceil_div(n_dense, DENSE_TILE_COLS)
    elem = element_bytes(precision)
    tx_per_row = _b_row_transactions(precision.value, config.coalesced)

    counts = fmt.partition.vectors_per_window.astype(np.int64)
    nonempty = counts > 0
    widths, _, _ = fmt.partition.block_widths(k)
    num_blocks = widths.shape[0]
    total_vectors = int(counts.sum())

    counter = CostCounter()
    counter.add_mma(shape.name, precision.value, num_blocks * n_tiles)

    # Sparse TC block A loads: 8 * width values per block per tile, with
    # per-block transaction counts taken from the block-width histogram
    # (widths are k for full blocks, the residue for a window's last block).
    a_bytes = 8 * widths * elem
    counter.add_load_bulk(32, (-(-a_bytes // 32)) * n_tiles, a_bytes * n_tiles)

    # Dense TC block B loads: one gathered row per vector, per tile.
    b_useful_per_tile = total_vectors * DENSE_TILE_COLS * elem
    counter.add_load(
        32,
        tx_per_row * total_vectors * n_tiles,
        useful_bytes=b_useful_per_tile * n_tiles,
    )

    counter.add_index_ops(INDEX_OPS_PER_BLOCK_TILE * num_blocks * n_tiles)

    # Output write-back, one per non-empty window.
    window_rows = np.full(fmt.num_windows, 8, dtype=np.int64)
    if fmt.num_windows:
        last_rows = fmt.shape[0] - (fmt.num_windows - 1) * 8
        window_rows[-1] = last_rows
    out_bytes = window_rows[nonempty] * n_dense * 4
    if int(out_bytes.sum()):
        counter.add_store_bulk(32, -(-out_bytes // 32), out_bytes)

    counter.add_warps(int(nonempty.sum()) * n_tiles)
    _set_footprints(counter, fmt, fmt.shape[1], n_dense, precision)
    return counter
