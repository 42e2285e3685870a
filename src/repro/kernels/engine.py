"""Batched vectorized execution engine shared by the four TCU kernels.

The reference kernels (``engine="reference"``) walk the TC-block structure
with a per-(window, block, tile) Python loop, issuing one emulated MMA per
tile.  That mirrors the CUDA kernel faithfully but is dominated by
interpreter overhead.  This module is the ``engine="batched"`` execution
path.

SpMM: one row-wise accumulate
-----------------------------
FlashSparse keeps a row window's partial sums in the MMA accumulator
across all of the window's TC blocks and stores C once.  The engine does
the same per output row: ``out[r] = Σ_e q(value[e]) · B_q[col[e]]`` in
FP32, in storage order, over the nonzero lanes of
:meth:`repro.formats.blocked.BlockedVectorFormat.lanes_as_csr` — SciPy's
compiled CSR × dense kernel, one axpy along N per stored nonzero.  No
per-block product exists, so there is nothing to reduce and nothing to
bound: zero lanes (zero fill, padded block lanes) are never read, and an
output row depends only on its own entries, an output column only on its
own column of B.  The one-shot call, every window-aligned shard, every
``block_chunk`` / ``workers`` setting and every operand coalesced with
others along N are therefore **bit-identical by construction**.  Against
``engine="reference"`` — which stays the per-MMA oracle and folds each
block's ``k`` products into the accumulator as one MMA — values agree to
FP32 round-off.

SDDMM: batched blocks, memory-bounded streaming
----------------------------------------------
SDDMM consumes the padded batch arrays of ``blocks_as_arrays``: one
gather of the dense rows a block addresses, one batched matmul, one
scatter at the nonzero lanes.  ``block_chunk`` (a block count) or
``max_intermediate_bytes`` (a byte budget the chunk is derived from)
streams the batch in block-range slices, so peak intermediate memory is
O(chunk · v · K); ``workers=K`` shards window-aligned chunk ranges across
a thread pool.  Output blocks are independent, so every setting is
bit-identical to the one-shot run.

Only the numerics live here.  Cost accounting is closed-form over the
block-width histogram and stays with each kernel's ``*_cost`` function,
which produces bit-identical counter state to the reference loop (the parity
tests assert exact ``CostCounter`` equality and value agreement) — and, by
construction, counter state that is *exactly* independent of the chunking
and worker knobs.

The engine is quantisation-faithful: the sparse values are re-quantised to
the target precision exactly where :func:`repro.gpu.mma.mma_execute` would
(FP16 storage is already exact; TF32 values are stored in FP32 containers
and rounded here), and all accumulation happens in FP32, matching
tensor-core accumulators.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.formats.blocked import BlockedVectorFormat
from repro.ops import segment_ids, segment_softmax
from repro.precision.types import Precision, quantize


def spmm_bytes_per_block(vector_size: int, group: int, n_dense: int) -> int:
    """Float32 bytes of dense data one SpMM block touches: its (v, N) output
    rows plus the (group, N) rows of B it reads.

    The row-wise accumulate holds no per-block intermediate, so this sizes
    *work per shard task*, not memory: the serving planner divides its
    budget by it to pick how many blocks a shard gets.
    """
    return (int(vector_size) + int(group)) * int(n_dense) * 4


def sddmm_bytes_per_block(vector_size: int, group: int, k_dense: int) -> int:
    """Float32 intermediate bytes one SDDMM output block contributes.

    The gathered A window (v, K) and B rows (group, K) plus the (v, group)
    accumulator.
    """
    v, g = int(vector_size), int(group)
    return ((v + g) * int(k_dense) + v * g) * 4


def resolve_block_chunk(
    num_blocks: int,
    bytes_per_block: int,
    block_chunk: int | None,
    max_intermediate_bytes: int | None,
    workers: int = 1,
) -> int:
    """Blocks per streaming slice; ``num_blocks`` means the one-shot path.

    An explicit ``block_chunk`` wins; otherwise ``max_intermediate_bytes``
    is divided by the per-block intermediate footprint (never below one
    block — the floor under which no streaming granularity exists).  The
    byte budget covers the whole run: with ``workers`` threads each holding
    one chunk's intermediates concurrently, the per-chunk share is
    ``budget / workers``.
    """
    if block_chunk is not None:
        return max(1, int(block_chunk))
    if max_intermediate_bytes is not None:
        per_chunk_budget = int(max_intermediate_bytes) // max(1, int(workers))
        return max(1, per_chunk_budget // max(1, int(bytes_per_block)))
    return max(1, num_blocks)


def _worker_ranges(
    window_offsets: np.ndarray, num_blocks: int, workers: int
) -> list[tuple[int, int]]:
    """Split ``[0, num_blocks)`` into ≤ ``workers`` window-aligned shards.

    Shard boundaries snap to window starts so every window's blocks live in
    exactly one shard — the property that makes concurrent output writes
    race-free (each shard owns a disjoint set of output rows / vectors).
    """
    workers = max(1, int(workers))
    if workers == 1 or num_blocks == 0:
        return [(0, num_blocks)]
    bounds = [0]
    for i in range(1, workers):
        target = (i * num_blocks) // workers
        snapped = int(
            window_offsets[np.searchsorted(window_offsets, target, side="left")]
        )
        if bounds[-1] < snapped < num_blocks:
            bounds.append(snapped)
    bounds.append(num_blocks)
    return list(zip(bounds[:-1], bounds[1:]))


def _run_sharded(ranges: list[tuple[int, int]], body, workers: int) -> None:
    """Run ``body(lo, hi)`` over block ranges, threaded when it pays off."""
    if len(ranges) == 1 or workers <= 1:
        for lo, hi in ranges:
            body(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
        # list() re-raises the first worker exception instead of swallowing it.
        list(pool.map(lambda r: body(*r), ranges))


def _spmm_rows(
    values: np.ndarray,
    columns: np.ndarray,
    row_offsets: np.ndarray,
    b_q: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    """The SpMM core: ``rows[r] = Σ_e q(values[e]) · b_q[columns[e]]`` over
    ``e`` in ``row_offsets[r]:row_offsets[r + 1]``, in that order, in FP32.

    SciPy's CSR × dense kernel does one axpy along N per entry, so a row's
    bits depend only on its own entries and a column's only on its own
    column of ``b_q`` — the whole sharding / coalescing contract.
    """
    if columns.size and int(columns.max()) >= b_q.shape[0]:
        raise IndexError("sparse column index out of range of the dense operand")
    shape = (row_offsets.shape[0] - 1, b_q.shape[0])
    return sp.csr_matrix((quantize(values, precision), columns, row_offsets), shape=shape) @ b_q


def spmm_batched(
    fmt: BlockedVectorFormat,
    b_q: np.ndarray,
    precision: Precision,
    block_chunk: int | None = None,
    max_intermediate_bytes: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Numeric result of ``C = A @ B`` over the whole matrix.

    Parameters
    ----------
    fmt:
        The blocked sparse matrix (any vector size; the swap-and-transpose
        8×1 kernels and the 16×1 baselines share this path, since Equation (1)
        is a numeric identity).
    b_q:
        Dense operand already quantised to ``precision``, float32, of shape
        ``(fmt.shape[1], N)``.
    precision:
        Target precision; the stored sparse values are re-quantised to it.
    block_chunk, max_intermediate_bytes, workers:
        Accepted for signature symmetry with :func:`sddmm_batched` (one
        config feeds both) and ignored: the row-wise accumulate has no
        intermediate to bound, and any split of it is bit-identical.
    """
    del block_chunk, max_intermediate_bytes, workers
    lanes = fmt.lanes_as_csr()
    rows = _spmm_rows(lanes.values, lanes.columns, lanes.row_offsets, b_q, precision)
    return rows[: fmt.shape[0]]  # drops the partial last window's padded rows


def sddmm_batched(
    fmt: BlockedVectorFormat,
    a_q: np.ndarray,
    b_q: np.ndarray,
    precision: Precision,
    group: int,
    scale_by_mask: bool = False,
    block_chunk: int | None = None,
    max_intermediate_bytes: int | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Numeric SDDMM output values over the whole output-block batch.

    Parameters
    ----------
    fmt:
        The blocked sampling mask.
    a_q, b_q:
        Dense operands already quantised to ``precision``, float32, of shapes
        ``(fmt.shape[0], K)`` and ``(fmt.shape[1], K)``.
    precision:
        Target precision (the dense operands are assumed pre-quantised; kept
        for signature symmetry and future per-chunk emulation hooks).
    group:
        Nonzero vectors covered by one sparse output TC block (16 for the 8×1
        swap-and-transpose kernel, 8 for the 16×1 baseline).
    scale_by_mask:
        Multiply each sampled dot product by the mask's stored value.
    block_chunk, max_intermediate_bytes, workers:
        Memory-bounded streaming knobs (see the module docstring).  SDDMM
        output blocks are independent, so chunked and sharded runs are
        bit-identical to the one-shot run (every nonzero vector is written
        by exactly one block).

    Returns
    -------
    ``(num_nonzero_vectors, vector_size)`` float32 array in the layout of
    ``fmt.vector_values``.
    """
    del precision
    v = fmt.vector_size
    n_rows = fmt.shape[0]
    k_dense = a_q.shape[1]
    out_values = np.zeros(fmt.vector_values.shape, dtype=np.float32)
    batch = fmt.blocks_as_arrays(group)
    n_blocks = batch.num_blocks
    if n_blocks == 0 or k_dense == 0:
        return out_values

    a_pad = np.zeros((fmt.num_windows * v, k_dense), dtype=np.float32)
    a_pad[:n_rows] = a_q
    a_win = a_pad.reshape(fmt.num_windows, v, k_dense)

    bytes_per_block = sddmm_bytes_per_block(v, group, k_dense)
    chunk = resolve_block_chunk(
        n_blocks, bytes_per_block, block_chunk, max_intermediate_bytes, workers
    )

    def body(lo: int, hi: int) -> None:
        for c_lo in range(lo, hi, chunk):
            c_hi = min(c_lo + chunk, hi)
            a_blocks = a_win[batch.window_of_block[c_lo:c_hi]]  # (chunk, v, K)
            b_blocks = b_q[batch.columns[c_lo:c_hi]]  # (chunk, group, K)
            acc = a_blocks @ b_blocks.transpose(0, 2, 1)  # (chunk, v, group)

            values = batch.values[c_lo:c_hi]
            sampled = np.where(values != 0.0, acc, 0.0)
            if scale_by_mask:
                sampled = sampled * values
            # Scatter each valid lane's column back to its nonzero vector;
            # every vector belongs to exactly one block, so the writes of
            # distinct chunks (and shards) are disjoint.
            lanes = batch.lane_valid[c_lo:c_hi]
            out_values[batch.vector_index[c_lo:c_hi][lanes]] = sampled.transpose(0, 2, 1)[lanes]

    ranges = _worker_ranges(batch.window_offsets, n_blocks, workers)
    _run_sharded(ranges, body, workers)
    return out_values


# ---------------------------------------------------------------------------
# Shard execution hooks (multi-process serving)
# ---------------------------------------------------------------------------
# The functions below are the per-shard numeric cores the serving scheduler
# (:mod:`repro.serve.scheduler`) runs inside worker *processes*.  They take
# plain ndarrays (cheap to pickle per shard; the large dense operands travel
# via shared memory) and reproduce the one-shot batched path bit-for-bit:
# a shard covers a *window-aligned* block range, hence whole output rows
# (SpMM: each row is accumulated from its own entries only) and whole
# output blocks (SDDMM: every block is independent).


@dataclass(frozen=True)
class ShardRange:
    """One window-aligned unit of work: blocks ``[lo, hi)`` covering windows
    ``[w0, w1)`` of the batch."""

    lo: int
    hi: int
    w0: int
    w1: int

    @property
    def num_blocks(self) -> int:
        """Blocks in the shard."""
        return self.hi - self.lo


def window_aligned_ranges(
    window_offsets: np.ndarray, target_blocks: int
) -> list[ShardRange]:
    """Cut the block batch into window-aligned shards of ≈ ``target_blocks``.

    Every window's blocks land in exactly one shard (the race-freedom and
    bit-exactness invariant); a window with more than ``target_blocks``
    blocks becomes a shard of its own rather than being split.  The shards
    cover the windows gaplessly and in order — empty windows (zero blocks,
    zero output) are absorbed into the neighbouring shard — so consecutive
    shards satisfy ``prev.hi == next.lo`` and ``prev.w1 == next.w0``.  An
    all-empty batch yields no shards.
    """
    offsets = np.asarray(window_offsets, dtype=np.int64)
    n_windows = offsets.shape[0] - 1
    target = max(1, int(target_blocks))
    ranges: list[ShardRange] = []
    w0 = 0
    while w0 < n_windows:
        lo = int(offsets[w0])
        # Largest window end whose cumulative block count stays within target
        # (but always at least one window).
        w1 = int(np.searchsorted(offsets, lo + target, side="right")) - 1
        w1 = min(max(w1, w0 + 1), n_windows)
        hi = int(offsets[w1])
        while hi == lo and w1 < n_windows:  # leading empty windows: reach blocks
            w1 += 1
            hi = int(offsets[w1])
        while w1 < n_windows and int(offsets[w1 + 1]) == hi:  # trailing empties
            w1 += 1
        if hi > lo:
            ranges.append(ShardRange(lo=lo, hi=hi, w0=w0, w1=w1))
        w0 = w1
    return ranges


def sddmm_a_window(a_q: np.ndarray, w0: int, w1: int, v: int) -> np.ndarray:
    """The zero-padded ``(w1 - w0, v, K)`` slab of A rows for a window range.

    Identical to the slab the one-shot engine gathers for those windows, so
    every shard consumer — the in-process pool, the in-parent fallback and
    the cluster worker hosts — feeds :func:`sddmm_shard_values` bit-identical
    inputs.
    """
    k_dense = a_q.shape[1]
    a_win = np.zeros(((w1 - w0) * v, k_dense), dtype=np.float32)
    lo, hi = w0 * v, min(w1 * v, a_q.shape[0])
    a_win[: hi - lo] = a_q[lo:hi]
    return a_win.reshape(w1 - w0, v, k_dense)


def spmm_shard_rows(
    shard_values: np.ndarray,
    shard_columns: np.ndarray,
    local_offsets: np.ndarray,
    b_q: np.ndarray,
    precision: Precision,
) -> np.ndarray:
    """Dense output rows of one window-aligned SpMM shard.

    ``shard_values`` / ``shard_columns`` are the shard's slice of the
    format's :class:`~repro.formats.blocked.LaneCSR` entries (or, for the
    fused layer, the attention values in CSR entry order), ``local_offsets``
    the shard-local row offsets.  Returns one ``(N,)`` row per offset pair,
    the first being matrix row ``w0 · v`` (the caller clips the tail window
    past ``n_rows``) — bit-identical to the same rows of the one-shot run.

    A name of its own over the core it shares with :func:`spmm_batched`:
    both are trace points of one span, and one calling the other would nest
    the span and double-count it.
    """
    return _spmm_rows(shard_values, shard_columns, local_offsets, b_q, precision)


def sddmm_shard_values(
    shard_values: np.ndarray,
    shard_columns: np.ndarray,
    shard_lane_valid: np.ndarray,
    shard_vector_index: np.ndarray,
    local_window_of_block: np.ndarray,
    a_win: np.ndarray,
    b_q: np.ndarray,
    scale_by_mask: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled values of one window-aligned SDDMM shard.

    ``a_win`` is the zero-padded ``(w1 - w0, v, K)`` slab of A rows for the
    shard's windows; ``local_window_of_block`` indexes into it.  Returns
    ``(vector_indices, values)`` — the flat scatter targets into
    ``fmt.vector_values`` and the ``(n, v)`` rows to store there.  Bit-
    identical to the one-shot path: every output block is independent.
    """
    acc = a_win[local_window_of_block] @ b_q[shard_columns].transpose(0, 2, 1)
    sampled = np.where(shard_values != 0.0, acc, 0.0)
    if scale_by_mask:
        sampled = sampled * shard_values
    lanes = shard_lane_valid
    return shard_vector_index[lanes], sampled.transpose(0, 2, 1)[lanes]


# ---------------------------------------------------------------------------
# Fused layer shard hook (one round trip per GNN layer)
# ---------------------------------------------------------------------------
# A GAT/AGNN-style attention layer is SDDMM → (scale) → edge softmax → SpMM.
# Served one kernel at a time that costs three request cycles per layer, each
# re-gathering dense operands and re-acquiring the translation.  The fused
# hook below executes the *whole* pipeline for one window-aligned shard.
#
# Why this is possible per shard, bit-identically: shard boundaries are
# window-aligned, windows are ``vector_size`` consecutive rows, so a shard
# owns whole CSR rows — every softmax segment (one CSR row) lies entirely
# inside one shard, and :func:`repro.ops.segment_softmax` computes each
# segment from its own elements only.  The SDDMM and SpMM stages were
# already shard-local.  The one representational hop — SDDMM emits values
# in nonzero-vector layout, the softmax wants CSR edge order — is a scatter
# and a gather through the shared
# :class:`~repro.formats.windows.WindowPartition`, computed locally by
# :func:`layer_softmax_mapping` from the partition + CSR indptr; nothing
# extra has to travel on the wire for the cluster's ``layer_task`` frames.
# The SpMM then accumulates the attention weights where they are, in CSR
# entry order — for a canonical CSR (sorted, duplicate-free rows: what
# ``CSRMatrix.from_scipy`` builds) exactly the order the composed path's
# translated attention matrix stores them in.
#
# The composed serving path additionally *translates* the attention CSR
# before the SpMM, which stores the values as ``dtype_for(precision)``.
# Skipping that round trip is exact because :func:`spmm_shard_rows` applies
# ``quantize`` anyway and quantisation is idempotent (an FP16 round trip
# and TF32 mantissa rounding are both projections), so the fused SpMM sees
# the same quantised values the composed one does.


def layer_softmax_mapping(
    indptr: np.ndarray,
    nnz_vector_of_entry: np.ndarray,
    window_ptr: np.ndarray,
    w0: int,
    w1: int,
    vector_size: int,
    n_rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Shard-local CSR ↔ nonzero-vector mapping for the fused softmax stage.

    For the window range ``[w0, w1)`` (rows ``[w0·v, min(w1·v, n_rows))``)
    returns ``(local_indptr, entry_vector, entry_lane, vec_lo, vec_count)``:
    ``local_indptr`` is the shard-local CSR row layout (softmax segments),
    ``entry_vector`` / ``entry_lane`` address each CSR entry's slot in the
    shard's ``(vec_count, v)`` nonzero-vector value slab (vector ids local
    to ``vec_lo = window_ptr[w0]``), exactly the scatter the translation
    performs — so a gather through them reads SDDMM outputs in CSR edge
    order and a scatter writes attention weights back into block-value
    layout.  Everything derives from the partition and the CSR ``indptr``;
    a cluster worker computes it locally per task.
    """
    v = int(vector_size)
    r0 = int(w0) * v
    r1 = min(int(w1) * v, int(n_rows))
    e0 = int(indptr[r0])
    e1 = int(indptr[r1])
    local_indptr = np.asarray(indptr[r0 : r1 + 1], dtype=np.int64) - e0
    vec_lo = int(window_ptr[w0])
    vec_count = int(window_ptr[w1]) - vec_lo
    entry_vector = np.asarray(nnz_vector_of_entry[e0:e1], dtype=np.int64) - vec_lo
    # Rows start at w0·v ≡ 0 (mod v), so the lane (row-in-window) of every
    # entry is just its shard-local row index modulo v.
    entry_lane = segment_ids(local_indptr) % v
    return local_indptr, entry_vector, entry_lane, vec_lo, vec_count


def layer_shard_rows(
    sddmm_values: np.ndarray,
    sddmm_columns: np.ndarray,
    sddmm_lane_valid: np.ndarray,
    sddmm_vector_index: np.ndarray,
    sddmm_local_window_of_block: np.ndarray,
    local_indptr: np.ndarray,
    entry_vector: np.ndarray,
    entry_lane: np.ndarray,
    entry_columns: np.ndarray,
    vec_lo: int,
    vec_count: int,
    a_win: np.ndarray,
    b_q: np.ndarray,
    x_q: np.ndarray,
    precision: Precision,
    scale: float | None,
    scale_by_mask: bool,
) -> tuple[np.ndarray, dict]:
    """Dense output rows of one fused-layer shard, plus per-stage seconds.

    Executes SDDMM → (scale) → edge softmax → SpMM for one window-aligned
    shard without leaving the worker: the ``sddmm_*`` arguments are the
    shard's slices of the SDDMM-grouping block batch (as for
    :func:`sddmm_shard_values`), the mapping arguments come from
    :func:`layer_softmax_mapping`, and ``entry_columns`` is the column of
    each CSR entry's nonzero vector (``vector_cols[entry_vector]``).
    ``a_win`` / ``b_q`` are the SDDMM operands, ``x_q`` the SpMM dense
    operand; ``scale`` multiplies the edge logits in float32 before the
    softmax (the AGNN β).

    Returns ``(rows, timings)``: the shard's output rows starting at matrix
    row ``w0 · v`` (one per CSR row, so already clipped at ``n_rows``) and
    a ``{"sddmm_s", "edge_softmax_s", "spmm_s"}`` wall-clock split.
    """
    t0 = time.perf_counter()
    idx, vals = sddmm_shard_values(
        sddmm_values,
        sddmm_columns,
        sddmm_lane_valid,
        sddmm_vector_index,
        sddmm_local_window_of_block,
        a_win,
        b_q,
        scale_by_mask,
    )
    t1 = time.perf_counter()
    # SDDMM output → CSR edge order → per-row softmax.
    logits_vec = np.zeros((vec_count, a_win.shape[1]), dtype=np.float32)
    logits_vec[idx - vec_lo] = vals
    logits_csr = logits_vec[entry_vector, entry_lane]
    if scale is not None:
        logits_csr = logits_csr * np.float32(scale)
    attn_csr = segment_softmax(logits_csr, local_indptr)
    t2 = time.perf_counter()
    rows = spmm_shard_rows(attn_csr, entry_columns, local_indptr, x_q, precision)
    t3 = time.perf_counter()
    timings = {
        "sddmm_s": t1 - t0,
        "edge_softmax_s": t2 - t1,
        "spmm_s": t3 - t2,
    }
    return rows, timings


# ---------------------------------------------------------------------------
# Shard table (one body per served op)
# ---------------------------------------------------------------------------
# Every carrier of a shard task — the in-parent call, the shared-memory pool
# (:mod:`repro.serve.scheduler`) and the TCP cluster
# (:mod:`repro.cluster.head` / :mod:`repro.cluster.worker`) — executes a
# shard as ``op.run(op.slice(fmt, r, group, indptr), operands, params)``
# and differs only in where the two halves run: the pool slices in the
# parent and pickles the result to a child, a worker host slices its own
# (bit-identical) translation, the in-parent fallback does both in place.
#
# ``slice`` returns a dict of plain ndarrays and ints (cheap to pickle);
# ``run`` takes that dict, the op's dense operands in wire order and
# ``params`` — ``{"precision": str, "scale": float | None,
# "scale_by_mask": bool}``, of which each op reads the keys it needs (plain
# types: a pool task pickles them, a worker host rebuilds them from its
# frame header) — and returns ``(outputs, stage_seconds)``.  The entries
# reach the hooks above through their module-level names at call time, so a
# tracer that rebinds ``engine.spmm_shard_rows`` sees every served shard.


def _slice_spmm(fmt: BlockedVectorFormat, r: ShardRange, group, indptr) -> dict:
    del group, indptr
    lanes = fmt.lanes_as_csr()
    row0, row1 = r.w0 * fmt.vector_size, r.w1 * fmt.vector_size
    lo, hi = int(lanes.row_offsets[row0]), int(lanes.row_offsets[row1])
    return {
        "values": lanes.values[lo:hi],
        "columns": lanes.columns[lo:hi],
        "local_offsets": lanes.row_offsets[row0 : row1 + 1] - lo,
        "row0": row0,
    }


def _run_spmm(s: dict, operands, params: dict) -> tuple[list, dict]:
    (b_q,) = operands
    rows = spmm_shard_rows(
        s["values"], s["columns"], s["local_offsets"], b_q, Precision(params["precision"])
    )
    return [rows], {}


def _slice_sddmm(fmt: BlockedVectorFormat, r: ShardRange, group, indptr) -> dict:
    del indptr
    batch = fmt.blocks_as_arrays(group)
    return {
        "values": batch.values[r.lo : r.hi],
        "columns": batch.columns[r.lo : r.hi],
        "lane_valid": batch.lane_valid[r.lo : r.hi],
        "vector_index": batch.vector_index[r.lo : r.hi],
        "local_window_of_block": batch.window_of_block[r.lo : r.hi] - r.w0,
        "w0": r.w0,
        "w1": r.w1,
        "v": fmt.vector_size,
    }


def _run_sddmm(s: dict, operands, params: dict) -> tuple[list, dict]:
    a_q, b_q = operands
    idx, vals = sddmm_shard_values(
        s["values"],
        s["columns"],
        s["lane_valid"],
        s["vector_index"],
        s["local_window_of_block"],
        sddmm_a_window(a_q, s["w0"], s["w1"], s["v"]),
        b_q,
        bool(params["scale_by_mask"]),
    )
    return [np.asarray(idx, dtype=np.int64), vals], {}


def _slice_layer(fmt: BlockedVectorFormat, r: ShardRange, group, indptr) -> dict:
    # ``r`` is cut on the SpMM grouping; the SDDMM grouping covers the same
    # windows with different block counts, so it is sliced at the same
    # window bounds through its own offsets.
    soffsets = fmt.blocks_as_arrays(group).window_offsets
    s_range = ShardRange(int(soffsets[r.w0]), int(soffsets[r.w1]), r.w0, r.w1)
    local_indptr, entry_vector, entry_lane, vec_lo, vec_count = layer_softmax_mapping(
        indptr,
        fmt.partition.nnz_vector_of_entry,
        fmt.partition.window_ptr,
        r.w0,
        r.w1,
        fmt.vector_size,
        fmt.shape[0],
    )
    return {
        "sddmm": _slice_sddmm(fmt, s_range, group, None),
        "local_indptr": local_indptr,
        "entry_vector": entry_vector,
        "entry_lane": entry_lane,
        "entry_columns": fmt.partition.vector_cols[entry_vector + vec_lo],
        "vec_lo": vec_lo,
        "vec_count": vec_count,
        "row0": r.w0 * fmt.vector_size,
    }


def _run_layer(s: dict, operands, params: dict) -> tuple[list, dict]:
    a_q, b_q, x_q = operands
    d = s["sddmm"]
    rows, timings = layer_shard_rows(
        d["values"],
        d["columns"],
        d["lane_valid"],
        d["vector_index"],
        d["local_window_of_block"],
        s["local_indptr"],
        s["entry_vector"],
        s["entry_lane"],
        s["entry_columns"],
        s["vec_lo"],
        s["vec_count"],
        sddmm_a_window(a_q, d["w0"], d["w1"], d["v"]),
        b_q,
        x_q,
        Precision(params["precision"]),
        params["scale"],
        bool(params["scale_by_mask"]),
    )
    return [rows], timings


@dataclass(frozen=True)
class ShardOp:
    """One served op as every shard carrier sees it.

    ``sddmm_grouped`` says which block grouping the shard ranges are cut
    on (the SDDMM output grouping, or the default SpMM one); ``scatter``
    is the placement rule — ``False``: ``outputs[0]`` is a dense row block
    starting at ``sliced["row0"]`` (tail window clipped at ``n_rows``);
    ``True``: ``outputs`` is a ``(vector_index, values)`` scatter pair into
    the ``fmt.vector_values`` layout.
    """

    slice: Callable[..., dict]
    run: Callable[..., tuple[list, dict]]
    sddmm_grouped: bool = False
    scatter: bool = False

    def plan(
        self,
        fmt: BlockedVectorFormat,
        operands,
        group: int | None,
        shards: int,
        target_blocks: int | None,
    ) -> tuple[list[ShardRange], tuple]:
        """``(ranges, out_shape)`` for one request.

        ``target_blocks`` defaults to an even split into ``shards``.  The
        ranges are empty when there is nothing to compute (no blocks, or a
        zero-width operand) — the result is then all zeros.
        """
        batch = fmt.blocks_as_arrays(group) if self.sddmm_grouped else fmt.blocks_as_arrays()
        width = operands[-1].shape[1]
        out_shape = fmt.vector_values.shape if self.scatter else (fmt.shape[0], width)
        if batch.num_blocks == 0 or width == 0:
            return [], out_shape
        if target_blocks is None:
            target_blocks = max(1, -(-batch.num_blocks // max(1, int(shards))))
        return window_aligned_ranges(batch.window_offsets, target_blocks), out_shape

    def place(self, out: np.ndarray, sliced: dict, outputs: list) -> None:
        """Write one shard's ``outputs`` into the request's output array.

        Shards own disjoint rows / vectors (window alignment), so
        concurrent placements into one shared buffer need no lock.
        """
        if self.scatter:
            out[outputs[0]] = outputs[1]
            return
        rows, row0 = outputs[0], sliced["row0"]
        stop = min(row0 + rows.shape[0], out.shape[0])
        out[row0:stop] = rows[: stop - row0]


#: The served kernels, by the ``op`` name task dicts and frame headers carry.
SHARD_OPS = {
    "spmm": ShardOp(_slice_spmm, _run_spmm),
    "sddmm": ShardOp(_slice_sddmm, _run_sddmm, sddmm_grouped=True, scatter=True),
    "layer": ShardOp(_slice_layer, _run_layer),
}
