"""The TCU SpMM kernel, written once over a :class:`Granularity`.

The kernel walks the blocked format window by window.  For every sparse TC
block A (``vector_size`` rows × ``k`` nonzero vectors) and every
``dense_span``-column tile of the dense matrix B it:

1. gathers the ``k`` rows of B addressed by the block's column indices
   (the dense TC block B, ``k × dense_span``),
2. issues one MMA — under the swapped binding the hardware instruction sees
   ``Bᵀ`` as its left operand and ``Aᵀ`` as its right operand and produces
   ``Cᵀ``; under the direct binding A is the left operand —,
3. accumulates the result into the window's output tile of C.

The cost accounting mirrors the CUDA kernel: one MMA per (block, tile), the
sparse block A and the gathered B rows are loaded per MMA, and the output
tile is written once per (window, tile).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.gpu.mma import MMAShape
from repro.kernels.common import FlashSparseConfig, SpmmResult
from repro.kernels.engine import spmm_batched
from repro.kernels.granularity import Granularity, ceil_div
from repro.kernels.thread_mapping import b_tile_transactions, get_mapping
from repro.perfmodel.model import spmm_useful_flops
from repro.precision.types import Precision, element_bytes, quantize
from repro.utils.validation import check_dense_matrix

#: Fixed auxiliary index work charged per (block, tile): residue modulo,
#: column-offset computation and the format's pointer arithmetic.
INDEX_OPS_PER_BLOCK_TILE = 8


@lru_cache(maxsize=None)
def _mapped_b_row_transactions(precision: Precision, coalesced: bool) -> int:
    """32-byte transactions per gathered B row, from the thread-mapping model."""
    mapping = get_mapping(precision, coalesced)
    # Use well-separated synthetic rows so transactions never merge across rows.
    rows = np.arange(mapping.k, dtype=np.int64)
    report = b_tile_transactions(mapping, row_stride_bytes=1 << 16, row_indices=rows)
    assert report.num_transactions % mapping.k == 0
    return report.num_transactions // mapping.k


def _b_row_cost(g: Granularity, shape: MMAShape, config: FlashSparseConfig) -> tuple[int, int]:
    """(transactions, useful bytes) per gathered B row of one dense tile.

    The swapped binding's 16-column row segment is loaded under the thread
    mappings of Section 3.3 (1 transaction with the memory-efficient
    mapping, 2 with the direct one, for FP16 — Figure 15).  The direct
    binding's tile is only ``n`` columns wide, so an FP16 segment is 16
    bytes: half of the minimum 32-byte transaction is wasted.
    """
    useful = g.dense_span(shape) * element_bytes(config.precision)
    if g.swapped:
        return _mapped_b_row_transactions(config.precision, config.coalesced), useful
    return ceil_div(useful, 32), useful


def _bind(
    g: Granularity, a: BlockedVectorFormat | CSRMatrix, config: FlashSparseConfig, api: str
) -> tuple[BlockedVectorFormat, MMAShape]:
    """The instruction and the blocked format of one invocation."""
    shape = g.shape_for(config.precision, api)
    fmt = g.resolve(a, config.precision)
    if fmt.k != shape.k:
        raise ValueError(
            f"format block width k={fmt.k} does not match instruction "
            f"{shape.name} at {config.precision} (k={shape.k})"
        )
    return fmt, shape


def _set_footprints(
    counter: CostCounter, fmt: BlockedVectorFormat, n_dense: int, precision: Precision
) -> None:
    """Record the unique DRAM footprint: the format's arrays plus the dense B.

    Rows of B gathered repeatedly across row windows stay L2-resident on the
    real device; only the unique data has to stream from DRAM.
    """
    b_array_bytes = fmt.shape[1] * n_dense * element_bytes(precision)
    read_fp = min(counter.bytes_read, fmt.memory_footprint_bytes() + b_array_bytes)
    counter.set_read_footprint(read_fp)
    counter.set_write_footprint(counter.bytes_written)


def spmm_execute(
    g: Granularity,
    kernel: str,
    cost: Callable[[BlockedVectorFormat, int, FlashSparseConfig], CostCounter],
    a: BlockedVectorFormat | CSRMatrix,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    api: str = "mma",
) -> SpmmResult:
    """Execute ``C = A @ B`` under binding ``g``, reporting as ``kernel``.

    ``cost`` is the calling entry point's own public cost function: the
    batched path takes its counter through that name, so rebinding it is
    seen.
    """
    config = config or FlashSparseConfig()
    fmt, shape = _bind(g, a, config, api)
    b = check_dense_matrix(b, "b", n_rows=fmt.shape[1])
    n_dense = b.shape[1]
    precision = config.precision

    b_q = quantize(b, precision)
    if config.engine == "batched" and n_dense > 0:
        # One row-wise accumulate over the format's nonzero lanes (Equation
        # (1) is an identity: both bindings share it); the counter comes from
        # the closed-form cost pass, which is bit-identical to the loop's.
        out = spmm_batched(fmt, b_q, precision)
        counter = cost(fmt, n_dense, config)
    else:
        out, counter = _spmm_reference(g, fmt, b_q, config, shape)
    return SpmmResult(
        values=out,
        counter=counter,
        kernel=kernel,
        useful_flops=spmm_useful_flops(fmt.nnz, n_dense),
        meta={
            "precision": precision.value,
            "vector_size": g.vector_size,
            "mma_shape": shape.name,
            "n_dense": n_dense,
            "engine": config.engine if n_dense > 0 else "reference",
            # Each binding reports the knob only it reads.
            **({"coalesced": config.coalesced} if g.swapped else {"api": api}),
        },
    )


def _spmm_reference(
    g: Granularity,
    fmt: BlockedVectorFormat,
    b_q: np.ndarray,
    config: FlashSparseConfig,
    shape: MMAShape,
) -> tuple[np.ndarray, CostCounter]:
    """The per-(window, block, tile) emulation loop — the engine's oracle."""
    precision = config.precision
    k = shape.k
    v = g.vector_size
    dense_tile = g.dense_span(shape)
    n_dense = b_q.shape[1]
    n_tiles = ceil_div(n_dense, dense_tile)
    elem = element_bytes(precision)
    b_tx_per_row, b_useful_per_row = _b_row_cost(g, shape, config)
    counter = CostCounter()
    out = np.zeros((fmt.shape[0], n_dense), dtype=np.float32)

    for w in range(fmt.num_windows):
        row0, row1 = fmt.partition.window_row_range(w)
        rows_here = row1 - row0
        start, end = fmt.window_vector_range(w)
        if start == end:
            continue
        window_acc = np.zeros((v, n_dense), dtype=np.float32)
        for blk in range(fmt.window_blocks(w)):
            cols = fmt.block_columns(w, blk).astype(np.int64)
            width = cols.shape[0]
            # Zero-fill the registers of the missing residue vectors.
            a_tile = np.zeros((v, k), dtype=np.float64)
            a_tile[:, :width] = fmt.block_values(w, blk)
            b_rows = np.zeros((k, n_dense), dtype=np.float32)
            b_rows[:width] = b_q[cols]
            # One MMA per dense tile of B.
            for t in range(n_tiles):
                j0 = t * dense_tile
                j1 = min(j0 + dense_tile, n_dense)
                b_tile = np.zeros((k, dense_tile), dtype=np.float64)
                b_tile[:, : j1 - j0] = b_rows[:, j0:j1]
                acc = g.mma(a_tile, b_tile, None, shape, counter=None)
                window_acc[:, j0:j1] += acc[:, : j1 - j0]
            # Per block across all tiles: the MMAs, the sparse block A
            # (contiguous in the format) and ``width`` gathered B rows.
            a_bytes = v * width * elem
            counter.add_mma(shape.name, precision.value, n_tiles)
            counter.add_load(32, ceil_div(a_bytes, 32) * n_tiles, useful_bytes=a_bytes * n_tiles)
            counter.add_load(
                32,
                b_tx_per_row * width * n_tiles,
                useful_bytes=b_useful_per_row * width * n_tiles,
            )
            counter.add_index_ops(INDEX_OPS_PER_BLOCK_TILE * n_tiles)
        out[row0:row1] = window_acc[:rows_here]
        # FP32 write-back of the window across all tiles.
        out_bytes = rows_here * n_dense * 4
        counter.add_store(32, ceil_div(out_bytes, 32), useful_bytes=out_bytes)
        counter.add_warps(n_tiles)

    _set_footprints(counter, fmt, n_dense, precision)
    return out, counter


def spmm_cost(
    g: Granularity,
    a: BlockedVectorFormat | CSRMatrix,
    n_dense: int,
    config: FlashSparseConfig | None = None,
    api: str = "mma",
) -> CostCounter:
    """Cost of the SpMM under binding ``g`` without computing the result.

    Produces exactly the counter :func:`_spmm_reference` would produce, but
    vectorised over the block structure so large matrices are cheap to
    sweep — and computed once per sparsity pattern and settings
    (:meth:`~repro.formats.windows.WindowPartition.memo`); each call
    returns a fresh copy.
    """
    config = config or FlashSparseConfig()
    fmt, shape = _bind(g, a, config, api)
    n_dense = int(n_dense)
    if n_dense <= 0:
        raise ValueError("n_dense must be positive")
    key = (
        "spmm", g.swapped, shape, api, n_dense, config.precision, config.coalesced,
        type(fmt), fmt.k, fmt.value_element_bytes(),
    )
    return fmt.partition.memo(key, lambda: _spmm_cost(g, fmt, shape, n_dense, config)).copy()


def _spmm_cost(
    g: Granularity,
    fmt: BlockedVectorFormat,
    shape: MMAShape,
    n_dense: int,
    config: FlashSparseConfig,
) -> CostCounter:
    """The closed-form counter behind :func:`spmm_cost`."""
    precision = config.precision
    v = g.vector_size
    n_tiles = ceil_div(n_dense, g.dense_span(shape))
    elem = element_bytes(precision)
    b_tx_per_row, b_useful_per_row = _b_row_cost(g, shape, config)

    nonempty = fmt.partition.vectors_per_window > 0
    widths, _, _ = fmt.partition.block_widths(shape.k)
    num_blocks = widths.shape[0]
    total_vectors = fmt.num_nonzero_vectors

    counter = CostCounter()
    counter.add_mma(shape.name, precision.value, num_blocks * n_tiles)

    # Sparse TC block A loads: v * width values per block per tile, with
    # per-block transaction counts taken from the block-width histogram
    # (widths are k for full blocks, the residue for a window's last block).
    a_bytes = v * widths * elem
    counter.add_load_bulk(32, (-(-a_bytes // 32)) * n_tiles, a_bytes * n_tiles)

    # Dense TC block B loads: one gathered row per vector, per tile.
    counter.add_load(
        32,
        b_tx_per_row * total_vectors * n_tiles,
        useful_bytes=b_useful_per_row * total_vectors * n_tiles,
    )

    counter.add_index_ops(INDEX_OPS_PER_BLOCK_TILE * num_blocks * n_tiles)

    # Output write-back, one per non-empty window.
    window_rows = np.full(fmt.num_windows, v, dtype=np.int64)
    if fmt.num_windows:
        window_rows[-1] = fmt.shape[0] - (fmt.num_windows - 1) * v
    out_bytes = window_rows[nonempty] * n_dense * 4
    if out_bytes.size:
        counter.add_store_bulk(32, -(-out_bytes // 32), out_bytes)

    counter.add_warps(int(nonempty.sum()) * n_tiles)
    _set_footprints(counter, fmt, n_dense, precision)
    return counter
