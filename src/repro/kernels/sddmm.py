"""The TCU SDDMM kernel, written once over a :class:`Granularity`.

SDDMM computes, for every nonzero position ``(i, j)`` of a sparse sampling
matrix S, the dot product of row ``i`` of a dense matrix A (``M × K``) and
row ``j`` of a dense matrix B (``Ncols × K``).  In attention-based GNNs this
is the edge-attention computation whose output feeds the subsequent SpMM.

The sparse *output* TC block is a window of ``vector_size`` rows times
``dense_span`` nonzero-vector columns: 8×16 under the swapped binding, 16×8
under the direct one.  Per output block the kernel issues ``ceil(K / k)``
MMAs over the window's slice of A and the gathered rows of B.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.gpu.mma import MMAShape
from repro.kernels.common import FlashSparseConfig, SddmmResult
from repro.kernels.engine import sddmm_batched
from repro.kernels.granularity import Granularity, ceil_div
from repro.perfmodel.model import sddmm_useful_flops
from repro.precision.types import Precision, element_bytes, quantize
from repro.utils.validation import check_dense_matrix

#: Auxiliary index work per (output block, K-chunk).
INDEX_OPS_PER_BLOCK_CHUNK = 16


def _set_footprints(
    counter: CostCounter, fmt: BlockedVectorFormat, k_dense: int, precision: Precision
) -> None:
    """Record the unique DRAM footprint: both dense inputs + the sparse structure."""
    n_rows, n_cols = fmt.shape
    dense_bytes = (n_rows + n_cols) * k_dense * element_bytes(precision)
    structure_bytes = (fmt.num_windows + 1 + fmt.num_nonzero_vectors) * 4
    read_fp = min(counter.bytes_read, dense_bytes + structure_bytes)
    counter.set_read_footprint(read_fp)
    counter.set_write_footprint(counter.bytes_written)


def sddmm_execute(
    g: Granularity,
    kernel: str,
    cost: Callable[[BlockedVectorFormat, int, FlashSparseConfig], CostCounter],
    mask: BlockedVectorFormat | CSRMatrix,
    a: np.ndarray,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    scale_by_mask: bool = False,
    relayout: Callable[[np.ndarray, Precision], np.ndarray] | None = None,
) -> SddmmResult:
    """Execute SDDMM under binding ``g``, reporting as ``kernel``:
    ``out[i, j] = <a[i, :], b[j, :]>`` at the mask's nonzeros.

    ``cost`` is the calling entry point's own public cost function (as for
    :func:`repro.kernels.spmm.spmm_execute`); ``relayout`` is applied by the
    reference loop to every finished accumulator tile before write-back.
    """
    config = config or FlashSparseConfig()
    precision = config.precision
    shape = g.shape_for(precision)
    fmt = g.resolve(mask, precision)
    n_rows, n_cols = fmt.shape
    a = check_dense_matrix(a, "a", n_rows=n_rows)
    b = check_dense_matrix(b, "b", n_rows=n_cols)
    if a.shape[1] != b.shape[1]:
        raise ValueError("a and b must share the inner dimension K")
    k_dense = a.shape[1]

    a_q = quantize(a, precision)
    b_q = quantize(b, precision)
    if config.engine == "batched" and k_dense > 0:
        out_values = sddmm_batched(fmt, a_q, b_q, scale_by_mask=scale_by_mask)
        counter = cost(fmt, k_dense, config)
    else:
        out_values, counter = _sddmm_reference(g, fmt, a_q, b_q, config, shape, scale_by_mask, relayout)
    output = BlockedVectorFormat(
        partition=fmt.partition,
        vector_values=out_values,
        k=fmt.k,
        precision=Precision.FP32,
        format_name=f"{fmt.format_name}-sddmm-out",
    )
    return SddmmResult(
        output=output,
        counter=counter,
        kernel=kernel,
        useful_flops=sddmm_useful_flops(fmt.nnz, k_dense),
        meta={
            "precision": precision.value,
            "vector_size": g.vector_size,
            "mma_shape": shape.name,
            "k_dense": k_dense,
            "scale_by_mask": scale_by_mask,
            "engine": config.engine if k_dense > 0 else "reference",
        },
    )


def _sddmm_reference(
    g: Granularity,
    fmt: BlockedVectorFormat,
    a_q: np.ndarray,
    b_q: np.ndarray,
    config: FlashSparseConfig,
    shape: MMAShape,
    scale_by_mask: bool,
    relayout: Callable[[np.ndarray, Precision], np.ndarray] | None,
) -> tuple[np.ndarray, CostCounter]:
    """The per-(window, block, chunk) emulation loop — the engine's oracle."""
    precision = config.precision
    v = g.vector_size
    block_vectors = g.dense_span(shape)
    k_dense = a_q.shape[1]
    mma_k = shape.k
    n_chunks = ceil_div(k_dense, mma_k)
    # Bytes and transactions of one ``mma_k``-element row segment of A or B.
    row_bytes = mma_k * element_bytes(precision)
    row_tx = ceil_div(row_bytes, 32)
    counter = CostCounter()
    out_values = np.zeros_like(fmt.vector_values, dtype=np.float32)
    mask_pattern = np.asarray(fmt.vector_values, dtype=np.float64) != 0.0

    for w in range(fmt.num_windows):
        row0, row1 = fmt.partition.window_row_range(w)
        start, end = fmt.window_vector_range(w)
        if start == end:
            continue
        a_rows = np.zeros((v, k_dense), dtype=np.float32)
        a_rows[: row1 - row0] = a_q[row0:row1]
        n_vecs = end - start
        for vec_lo in range(start, end, block_vectors):
            vec_hi = min(vec_lo + block_vectors, end)
            cols = fmt.partition.vector_cols[vec_lo:vec_hi].astype(np.int64)
            width = cols.shape[0]
            b_rows = np.zeros((block_vectors, k_dense), dtype=np.float32)
            b_rows[:width] = b_q[cols]
            acc = np.zeros((v, block_vectors), dtype=np.float32)
            for c in range(n_chunks):
                k0 = c * mma_k
                k1 = min(k0 + mma_k, k_dense)
                a_tile = np.zeros((v, mma_k), dtype=np.float64)
                a_tile[:, : k1 - k0] = a_rows[:, k0:k1]
                b_tile = np.zeros((mma_k, block_vectors), dtype=np.float64)
                b_tile[: k1 - k0, :] = b_rows[:, k0:k1].T
                acc = g.mma(a_tile, b_tile, acc, shape, counter=None)
            if relayout is not None:
                acc = relayout(acc, precision)
            # Write back only the sampled (nonzero) positions.
            block_pattern = mask_pattern[vec_lo:vec_hi].T  # (v, width)
            sampled = np.where(block_pattern, acc[:, :width], 0.0)
            if scale_by_mask:
                sampled = sampled * np.asarray(fmt.vector_values[vec_lo:vec_hi], dtype=np.float32).T
            out_values[vec_lo:vec_hi] = sampled.T

            # --- cost accounting per output block ---------------------------
            counter.add_mma(shape.name, precision.value, n_chunks)
            # Dense A tile: v rows of mma_k elements per chunk.
            counter.add_load(32, row_tx * v * n_chunks, useful_bytes=row_bytes * v * n_chunks)
            # Dense B tile: one gathered row per present vector per chunk.
            counter.add_load(32, row_tx * width * n_chunks, useful_bytes=row_bytes * width * n_chunks)
            counter.add_index_ops(INDEX_OPS_PER_BLOCK_CHUNK * n_chunks)
            # Output store: the present vectors' v values each, FP32.
            out_bytes = width * v * 4
            counter.add_store(32, ceil_div(out_bytes, 32), useful_bytes=out_bytes)
        counter.add_warps(ceil_div(n_vecs, block_vectors))

    _set_footprints(counter, fmt, k_dense, precision)
    return out_values, counter


def sddmm_cost(
    g: Granularity,
    mask: BlockedVectorFormat | CSRMatrix,
    k_dense: int,
    config: FlashSparseConfig | None = None,
) -> CostCounter:
    """Analytic cost of the SDDMM under binding ``g`` (matches
    :func:`_sddmm_reference`), computed once per sparsity pattern and
    settings (:meth:`~repro.formats.windows.WindowPartition.memo`); each
    call returns a fresh copy."""
    precision = (config or FlashSparseConfig()).precision
    shape = g.shape_for(precision)
    fmt = g.resolve(mask, precision)
    k_dense = int(k_dense)
    if k_dense <= 0:
        raise ValueError("k_dense must be positive")
    key = ("sddmm", g.swapped, shape, k_dense, precision)
    return fmt.partition.memo(key, lambda: _sddmm_cost(g, fmt, shape, k_dense, precision)).copy()


def _sddmm_cost(
    g: Granularity,
    fmt: BlockedVectorFormat,
    shape: MMAShape,
    k_dense: int,
    precision: Precision,
) -> CostCounter:
    """The closed-form counter behind :func:`sddmm_cost`."""
    v = g.vector_size
    n_chunks = ceil_div(k_dense, shape.k)
    row_bytes = shape.k * element_bytes(precision)
    row_tx = ceil_div(row_bytes, 32)

    nonempty = fmt.partition.vectors_per_window > 0
    widths, _, first_block = fmt.partition.block_widths(g.dense_span(shape))
    blocks_per_window = np.diff(first_block)
    num_blocks = widths.shape[0]
    total_vectors = fmt.num_nonzero_vectors

    counter = CostCounter()
    counter.add_mma(shape.name, precision.value, num_blocks * n_chunks)
    counter.add_load(
        32,
        row_tx * v * num_blocks * n_chunks,
        useful_bytes=row_bytes * v * num_blocks * n_chunks,
    )
    counter.add_load(
        32,
        row_tx * total_vectors * n_chunks,
        useful_bytes=row_bytes * total_vectors * n_chunks,
    )
    counter.add_index_ops(INDEX_OPS_PER_BLOCK_CHUNK * num_blocks * n_chunks)

    # Output stores: per block, the present vectors' v FP32 values — the
    # per-block byte counts come straight off the block-width histogram.
    store_bytes = widths * v * 4
    if total_vectors:
        counter.add_store_bulk(32, -(-store_bytes // 32), store_bytes)

    counter.add_warps(int(blocks_per_window[nonempty].sum()))
    _set_footprints(counter, fmt, k_dense, precision)
    return counter
