"""Batched vectorized execution engine shared by the four TCU kernels.

The reference kernels (``engine="reference"``) walk the TC-block structure
with a per-(window, block, tile) Python loop, issuing one emulated MMA per
tile.  That mirrors the CUDA kernel faithfully but is dominated by
interpreter overhead.  This module is the ``engine="batched"`` execution
path.  Both kernels run over one sparse view — the stored nonzero lanes of
:meth:`repro.formats.blocked.BlockedVectorFormat.lanes_as_csr` — so work
is proportional to the nonzeros, never to the padded TC-block slots around
them: zero lanes (zero fill, padded block lanes) are not read.

SpMM: one row-wise accumulate
-----------------------------
FlashSparse keeps a row window's partial sums in the MMA accumulator
across all of the window's TC blocks and stores C once.  The engine does
the same per output row: ``out[r] = Σ_e q(value[e]) · B_q[col[e]]`` in
FP32, in storage order — SciPy's compiled CSR × dense kernel, one axpy
along N per stored nonzero.  An output row depends only on its own
entries, an output column only on its own column of B.

SDDMM: one dot product per nonzero
----------------------------------
``out[e] = A_q[row[e]] · B_q[col[e]]`` in FP32 for every stored nonzero
lane — SDDMM evaluated *at the nonzeros* — as a gather of the two dense
rows and one ``einsum`` (no BLAS, so no shape-dependent bits), in fixed
L2-sized entry chunks (:data:`_ENTRY_CHUNK_BYTES`; a constant, not an
option).  An entry's value depends only on its own two dense rows.

The contract, once
------------------
Because no value depends on anything outside its own row (SpMM) or entry
(SDDMM), the one-shot call, every entry chunk, every window-aligned shard,
the stages of the fused layer and — for SpMM — every operand coalesced
with others along N are **bit-identical by construction**.  Against
``engine="reference"`` — which stays the per-MMA oracle and folds each
block's ``k`` products into the accumulator as one MMA — values agree to
FP32 round-off.

Only the numerics live here.  Cost accounting is closed-form over the
block-width histogram and stays with each kernel's ``*_cost`` function,
which produces bit-identical counter state to the reference loop (the parity
tests assert exact ``CostCounter`` equality and value agreement).

The engine is quantisation-faithful: every operand reaches the core
already quantised to the target precision, once per translation — the
format's lane values by
:meth:`~repro.formats.blocked.BlockedVectorFormat.quantized_lane_values`
(FP16 storage is already exact; TF32 values are stored in FP32 containers
and rounded there), the dense operands by the caller — and all
accumulation happens in FP32, matching tensor-core accumulators.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from repro.formats.blocked import BlockedVectorFormat
from repro.ops import segment_ids, segment_softmax
from repro.precision.types import Precision, dtype_for, quantize
from repro.utils.lru import LRU, total_nbytes


def spmm_bytes_per_block(vector_size: int, group: int, n_dense: int) -> int:
    """Float32 bytes of dense data one SpMM block touches: its (v, N) output
    rows plus the (group, N) rows of B it reads.

    The row-wise accumulate holds no per-block intermediate, so this sizes
    *work per shard task*, not memory: the serving planner divides its
    budget by it to pick how many blocks a shard gets.
    """
    return (int(vector_size) + int(group)) * int(n_dense) * 4


def sddmm_bytes_per_block(vector_size: int, group: int, k_dense: int) -> int:
    """Float32 bytes of dense data one SDDMM output block touches: its
    (v, K) window of A, the (group, K) rows of B and the (v, group) tile.

    Like :func:`spmm_bytes_per_block` this sizes *work per shard task* for
    the planner; the engine's own working set is the fixed entry chunk.
    """
    v, g = int(vector_size), int(group)
    return ((v + g) * int(k_dense) + v * g) * 4


#: Bytes of gathered dense operand (two float32 rows of K per entry) one
#: SDDMM chunk holds.  Cache sizing, not a knob: both gathers and the
#: ``einsum`` that consumes them stay in L2, and the temporaries stay small
#: enough for the allocator to recycle.  Measured flat from 128 KiB to
#: 512 KiB for K = 8 … 128; ~2× slower per call at 4 MiB and unchunked.
_ENTRY_CHUNK_BYTES = 256 << 10


def _spmm_rows(
    values_q: np.ndarray,
    columns: np.ndarray,
    row_offsets: np.ndarray,
    b_q: np.ndarray,
) -> np.ndarray:
    """The SpMM core: ``rows[r] = Σ_e values_q[e] · b_q[columns[e]]`` over
    ``e`` in ``row_offsets[r]:row_offsets[r + 1]``, in that order, in FP32.
    Both operands come in already quantised.

    SciPy's CSR × dense kernel does one axpy along N per entry, so a row's
    bits depend only on its own entries and a column's only on its own
    column of ``b_q`` — the whole sharding / coalescing contract.
    """
    if columns.size and int(columns.max()) >= b_q.shape[0]:
        raise IndexError("sparse column index out of range of the dense operand")
    shape = (row_offsets.shape[0] - 1, b_q.shape[0])
    return sp.csr_matrix((values_q, columns, row_offsets), shape=shape) @ b_q


def _sddmm_entries(
    rows: np.ndarray,
    columns: np.ndarray,
    mask: np.ndarray,
    a_q: np.ndarray,
    b_q: np.ndarray,
    scale_by_mask: bool,
) -> np.ndarray:
    """The SDDMM core: ``out[e] = a_q[rows[e]] · b_q[columns[e]]`` in FP32,
    zero where ``mask[e]`` is zero, times ``mask[e]`` under ``scale_by_mask``.

    One gather + ``einsum`` per entry chunk; an entry's bits depend only on
    its own two dense rows, so any chunking, any shard and any entry list
    (nonzero lanes for the kernel, CSR entries for the fused layer) that
    contains the entry computes the same value.
    """
    out = np.empty(rows.shape[0], dtype=np.float32)
    step = max(1, _ENTRY_CHUNK_BYTES // (8 * max(1, a_q.shape[1])))
    for lo in range(0, rows.shape[0], step):
        hi = lo + step
        np.einsum("ek,ek->e", a_q[rows[lo:hi]], b_q[columns[lo:hi]], out=out[lo:hi])
    if scale_by_mask:
        out *= mask
    # After the multiply: a mask stored as ``-0.0`` (or a NaN / inf dot
    # product behind a stored zero) gives ``+0.0``, what the lane view —
    # which has no lane there — leaves in the output.
    out[mask == 0.0] = 0.0
    return out


def spmm_batched(fmt: BlockedVectorFormat, b_q: np.ndarray, precision: Precision) -> np.ndarray:
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
        Target precision: the sparse operand is the format's lane values
        quantised to it, once per translation
        (:meth:`~repro.formats.blocked.BlockedVectorFormat.quantized_lane_values`).
    """
    lanes = fmt.lanes_as_csr()
    values_q = fmt.quantized_lane_values(precision)
    rows = _spmm_rows(values_q, lanes.columns, lanes.row_offsets, b_q)
    return rows[: fmt.shape[0]]  # drops the partial last window's padded rows


def sddmm_batched(
    fmt: BlockedVectorFormat,
    a_q: np.ndarray,
    b_q: np.ndarray,
    scale_by_mask: bool = False,
) -> np.ndarray:
    """Numeric SDDMM output values at every stored nonzero of the mask.

    Parameters
    ----------
    fmt:
        The blocked sampling mask (any vector size).
    a_q, b_q:
        Dense operands already quantised, float32, of shapes
        ``(fmt.shape[0], K)`` and ``(fmt.shape[1], K)``.
    scale_by_mask:
        Multiply each sampled dot product by the mask's stored value.

    Returns
    -------
    ``(num_nonzero_vectors, vector_size)`` float32 array in the layout of
    ``fmt.vector_values``, zero at the zero lanes.
    """
    lanes = fmt.lanes_as_csr()
    rows = segment_ids(lanes.row_offsets)
    out = np.zeros(fmt.vector_values.shape, dtype=np.float32)
    out.reshape(-1)[lanes.slot] = _sddmm_entries(
        rows, lanes.columns, lanes.values, a_q, b_q, scale_by_mask
    )
    return out


# ---------------------------------------------------------------------------
# Shard execution hooks (sharded serving)
# ---------------------------------------------------------------------------
# The functions below are the per-shard numeric cores the serving scheduler
# (:mod:`repro.serve.scheduler`) runs in the server process and cluster
# worker hosts run remotely.  They take plain ndarrays (cheap to ship in a
# frame) and reproduce the one-shot batched path bit-for-bit:
# a shard covers a *window-aligned* block range, hence whole matrix rows
# and the contiguous run of their CSR entries (SpMM: each output row is
# accumulated from its own entries only; SDDMM: each entry is computed
# from its own two dense rows only).


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


def spmm_shard_rows(
    shard_values_q: np.ndarray,
    shard_columns: np.ndarray,
    local_offsets: np.ndarray,
    b_q: np.ndarray,
) -> np.ndarray:
    """Dense output rows of one window-aligned SpMM shard.

    ``shard_values_q`` / ``shard_columns`` are the shard's slice of the
    format's :class:`~repro.formats.blocked.LaneCSR` entries, the values
    already quantised (or, for the fused layer, the quantised attention
    weights in CSR entry order), ``local_offsets`` the shard-local row
    offsets.  Returns one ``(N,)`` row per offset pair, the first being
    matrix row ``w0 · v`` — bit-identical to the same rows of the one-shot
    run.

    A name of its own over the core it shares with :func:`spmm_batched`:
    both are trace points of one span, and one calling the other would nest
    the span and double-count it.
    """
    return _spmm_rows(shard_values_q, shard_columns, local_offsets, b_q)


def sddmm_shard_values(
    entry_mask: np.ndarray,
    entry_columns: np.ndarray,
    local_offsets: np.ndarray,
    row0: int,
    a_q: np.ndarray,
    b_q: np.ndarray,
    scale_by_mask: bool,
) -> np.ndarray:
    """Sampled values of one window-aligned SDDMM shard, one per CSR entry.

    The arguments are the shard's CSR entries as the fused layer's first
    stage takes them (:func:`layer_shard_rows`): ``entry_mask`` the value
    the translation stores for each entry, ``entry_columns`` its column and
    ``local_offsets`` the shard-local row layout starting at matrix row
    ``row0``.  An entry stored as zero samples to zero.  Scattered through
    the partition's entry map (:meth:`WindowPartition.scatter
    <repro.formats.windows.WindowPartition.scatter>`), the entries are the
    one-shot result's ``vector_values``, bit for bit.

    A name of its own over the core it shares with :func:`sddmm_batched`,
    for the same reason as :func:`spmm_shard_rows`.
    """
    rows = segment_ids(local_offsets) + row0
    return _sddmm_entries(rows, entry_columns, entry_mask, a_q, b_q, scale_by_mask)


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
# segment from its own elements only.  All three stages run on *one* set of
# entry arrays, the shard's CSR entries in CSR order: the SDDMM core yields
# one logit per entry (see below), the softmax normalises them per row, and
# the SpMM accumulates the attention weights where they are — exactly the
# order the composed path's translated attention matrix stores them in, as
# ``CSRMatrix`` rows are canonical (sorted, duplicate-free) by construction.
# Everything a shard needs derives from the partition's entry map and the
# CSR ``indptr``, so nothing extra travels on the cluster's task frames.
#
# The softmax runs over **CSR** entries, the one-shot SDDMM kernel over
# nonzero *lanes*: a stored zero (or a value that underflows to zero in
# fp16) has a CSR entry but no lane, and the composed path gives it logit
# ``0 · scale`` and a non-zero attention weight.  The fused stage therefore
# evaluates the same core at the CSR entries with the *stored* value as
# mask (``vector_values`` gathered at ``partition.entry_slot``): zero there,
# the lane's dot product everywhere else — what a served SDDMM shard
# (:func:`sddmm_shard_values`) computes too.
#
# The three-call composition additionally *translates* the attention CSR
# before the SpMM, which stores the values as ``dtype_for(precision)``, and
# its SpMM quantises that translation's lane values.  Skipping the round
# trip is exact because the fused stage quantises the attention weights
# itself and quantisation is idempotent (an FP16 round trip and TF32
# mantissa rounding are both projections), so the fused SpMM sees the same
# quantised values the composed one does.


def layer_shard_rows(
    entry_mask: np.ndarray,
    entry_columns: np.ndarray,
    local_indptr: np.ndarray,
    row0: int,
    a_q: np.ndarray,
    b_q: np.ndarray,
    x_q: np.ndarray,
    precision: Precision,
    scale: float | None,
    scale_by_mask: bool,
) -> tuple[np.ndarray, dict]:
    """Dense output rows of one fused-layer shard, plus per-stage seconds.

    Executes SDDMM → (scale) → edge softmax → SpMM for one window-aligned
    shard without leaving the worker, over the shard's CSR entries:
    ``local_indptr`` is their shard-local row layout (row ``row0 + r`` of
    the matrix owns ``local_indptr[r]:local_indptr[r + 1]``),
    ``entry_columns`` each entry's column and ``entry_mask`` the mask value
    the translation stored for it.  ``a_q`` / ``b_q`` are the SDDMM
    operands, ``x_q`` the SpMM dense operand; ``scale`` multiplies the edge
    logits in float32 before the softmax (the AGNN β), and the attention
    weights are quantised to ``precision`` before the SpMM.

    Returns ``(rows, timings)``: the shard's output rows starting at matrix
    row ``row0`` (one per CSR row, so already clipped at ``n_rows``) and
    a ``{"sddmm_s", "edge_softmax_s", "spmm_s"}`` wall-clock split.
    """
    t0 = time.perf_counter()
    entry_rows = segment_ids(local_indptr) + row0
    logits = _sddmm_entries(entry_rows, entry_columns, entry_mask, a_q, b_q, scale_by_mask)
    t1 = time.perf_counter()
    if scale is not None:
        logits = logits * np.float32(scale)
    attn = segment_softmax(logits, local_indptr)
    t2 = time.perf_counter()
    rows = spmm_shard_rows(quantize(attn, precision), entry_columns, local_indptr, x_q)
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
# Every carrier of a shard task — the in-process scheduler
# (:mod:`repro.serve.scheduler`), the cluster head's in-parent fallback and
# the TCP cluster (:mod:`repro.cluster.head` / :mod:`repro.cluster.worker`)
# — executes a shard as ``op.run(op.slice(source, r, v), operands, params)``
# and differs only in where ``source`` comes from.  For every op it is the
# whole matrix's ``(values, columns, offsets)`` built straight from the CSR
# arrays (``op.csr_lanes``, :func:`csr_lanes`), which every carrier gets
# from :meth:`ShardOp.lanes` over its own :func:`lane_cache`: built once
# per values and precision — from the request's CSR in process, from the
# bundles the head pinned on a worker host.  SDDMM and the fused layer read
# the same set — the stored values, unquantised, are the mask of both — and
# SpMM its nonzeros, quantised.
#
# ``params`` are the request's settings as :func:`shard_params` returns
# them (plain types, so they travel as task header fields; each op reads
# the keys it needs).  A slice is a dict of plain ndarrays and ints, one
# schema for every op — the shard's ``values``, ``columns`` and
# shard-local ``offsets``, CSR-style, and ``row0``, where the shard's
# output block starts: the matrix row of the first offset for SpMM and the
# layer; for SDDMM, whose output holds one value per CSR entry, the first
# entry, with that matrix row as ``a_row0``.  ``run`` takes that dict, the
# op's dense operands (already quantised) in wire order and the settings
# and returns ``(outputs, stage_seconds)``.  The entries reach the hooks
# above through their module-level names at call time, so a tracer that
# rebinds ``engine.spmm_shard_rows`` sees every served shard.


def shard_params(
    precision: Precision | str, scale: float | None = None, scale_by_mask: bool = False
) -> dict:
    """``{"precision": str, "scale": float | None, "scale_by_mask": bool}``
    for one request: its settings, checked and canonicalised.

    The only place they are checked: the server calls it at submit, both
    schedulers before they cut shards and a worker host on every task
    header it receives, so a bad setting fails the same way on either side
    of the wire.  ``scale`` is rounded to float32 — the width the fused
    layer multiplies the logits in — and must be finite *after* that
    rounding; ``scale_by_mask`` must be a bool (Python or NumPy; returned
    as a Python bool).  Raises :class:`ValueError`.
    """
    if scale is not None:
        with np.errstate(over="ignore"):
            rounded = float(np.float32(scale))
        if not np.isfinite(rounded):
            raise ValueError(f"scale must be finite in float32, got {scale!r}")
        scale = rounded
    if not isinstance(scale_by_mask, (bool, np.bool_)):
        raise ValueError(f"scale_by_mask must be a bool, got {scale_by_mask!r}")
    return {
        "precision": Precision(precision).value,
        "scale": scale,
        "scale_by_mask": bool(scale_by_mask),
    }


def csr_lanes(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    precision: Precision | str,
    spmm_operand: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, columns, offsets)`` of the whole matrix straight from its
    CSR arrays — what a shard of SpMM or of the fused layer slices, without
    a translation.

    The stored values are ``data`` cast to the storage dtype
    (:func:`~repro.precision.types.dtype_for`) and widened to float32 —
    the cast the translation's value scatter makes.  As they are, over
    ``indices`` / ``indptr``, they are the fused layer's per-entry mask.
    ``spmm_operand=True`` gives SpMM's sparse operand instead: the entries
    whose stored value is zero dropped (the lane view's rule) and the rest
    quantised to ``precision``.  Either way the arrays equal the ones the
    translation's views give (:meth:`BlockedVectorFormat.lanes_as_csr` /
    :meth:`~BlockedVectorFormat.quantized_lane_values` over the first
    ``n_rows`` rows, and ``vector_values`` gathered at the entry map), so a
    served shard runs on the bits the one-shot kernels read.
    """
    precision = Precision(precision)
    if precision is Precision.FP16:
        # An fp16 value widened to float32 *is* its fp16 quantisation, and
        # :func:`quantize` computes that in one pass (the two casts take
        # four times as long).
        stored = quantize(data, precision)
    else:
        stored = data.astype(dtype_for(precision), copy=False)
    if not spmm_operand:
        return stored, indices, indptr
    keep = stored != 0
    if not keep.all():
        kept_before = np.zeros(keep.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        stored, indices, indptr = stored[keep], indices[keep], kept_before[indptr]
    if precision is Precision.FP16:
        return stored, indices, indptr  # quantising it again is the identity
    return quantize(stored, precision), indices, indptr


def _cut_rows(lanes: tuple, r: ShardRange, v: int) -> dict:
    """The entries of a shard's rows ``[w0 · v, min(w1 · v, n_rows))`` out
    of a whole matrix's ``lanes = (values, columns, offsets)``: the slice
    of SpMM and the fused layer."""
    values, columns, offsets = lanes
    row0, row1 = r.w0 * v, min(r.w1 * v, offsets.shape[0] - 1)
    lo, hi = int(offsets[row0]), int(offsets[row1])
    return {
        "values": values[lo:hi],
        "columns": columns[lo:hi],
        "offsets": np.asarray(offsets[row0 : row1 + 1], dtype=np.int64) - lo,
        "row0": row0,
    }


def _run_spmm(s: dict, operands, params: dict) -> tuple[list, dict]:
    (b_q,) = operands
    del params
    rows = spmm_shard_rows(s["values"], s["columns"], s["offsets"], b_q)
    return [rows], {}


def _cut_entries(lanes: tuple, r: ShardRange, v: int) -> dict:
    """SDDMM's slice: the shard's rows as :func:`_cut_rows` cuts them,
    placed at their first entry — an SDDMM output block is one value per
    CSR entry."""
    s = _cut_rows(lanes, r, v)
    s["a_row0"], s["row0"] = s["row0"], int(lanes[2][s["row0"]])
    return s


def _run_sddmm(s: dict, operands, params: dict) -> tuple[list, dict]:
    a_q, b_q = operands
    values = sddmm_shard_values(
        s["values"], s["columns"], s["offsets"], s["a_row0"], a_q, b_q, params["scale_by_mask"]
    )
    return [values[:, None]], {}


def _run_layer(s: dict, operands, params: dict) -> tuple[list, dict]:
    a_q, b_q, x_q = operands
    rows, timings = layer_shard_rows(
        s["values"],
        s["columns"],
        s["offsets"],
        s["row0"],
        a_q,
        b_q,
        x_q,
        Precision(params["precision"]),
        params["scale"],
        params["scale_by_mask"],
    )
    return [rows], timings


@dataclass(frozen=True)
class ShardOp:
    """One served op as every shard carrier sees it.

    Every op places the same way: ``outputs[0]`` is a block of output rows
    starting at ``sliced["row0"]`` (the tail window clipped at the output's
    height).  ``sddmm`` marks the op whose output is sparse — one row per
    CSR entry, ``(nnz, 1)``, which the schedulers scatter into the layout
    of ``fmt.vector_values`` — and whose shard ranges are cut on the SDDMM
    output grouping instead of the SpMM one.
    """

    #: ``slice(source, r, vector_size)`` → the slice dict of range ``r``.
    slice: Callable[..., dict]
    run: Callable[..., tuple[list, dict]]
    #: ``csr_lanes(indptr, indices, data, precision)`` → the whole matrix's
    #: ``(values, columns, offsets)``, the source :attr:`slice` cuts.
    csr_lanes: Callable[..., tuple]
    sddmm: bool = False

    def lanes(self, cache: LRU, values_key, arrays: tuple, precision: Precision | str) -> tuple:
        """What :attr:`slice` cuts: :attr:`csr_lanes` of the CSR ``arrays``
        ``(indptr, indices, data)``, built once per (builder, ``values_key``,
        precision) in the carrier's ``cache`` (:func:`lane_cache`).
        ``values_key`` names the pattern and values — ``csr.content_key()``
        in process, the ``vals`` store key on a worker host — so new values
        are a rebuild, never a stale hit.  SDDMM and the fused layer share a
        builder, and so a set."""
        precision = Precision(precision)
        key = (self.csr_lanes, values_key, precision)
        return cache.lookup(key, lambda: self.csr_lanes(*arrays, precision))

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
        index = fmt.blocks_as_arrays(group if self.sddmm else None)
        width = operands[-1].shape[1]
        out_shape = (fmt.nnz, 1) if self.sddmm else (fmt.shape[0], width)
        if index.num_blocks == 0 or width == 0:
            return [], out_shape
        if target_blocks is None:
            target_blocks = max(1, -(-index.num_blocks // max(1, int(shards))))
        return window_aligned_ranges(index.window_offsets, target_blocks), out_shape

    def place(self, out: np.ndarray, sliced: dict, outputs: list) -> None:
        """Write one shard's ``outputs`` into the request's output array.

        Shards own disjoint rows (window alignment), so the placements of a
        request never overlap.
        """
        rows, row0 = outputs[0], sliced["row0"]
        stop = min(row0 + rows.shape[0], out.shape[0])
        out[row0:stop] = rows[: stop - row0]


#: Byte budget of one carrier's lane sets (:meth:`ShardOp.lanes`): a set is
#: 0.33 MiB at the cluster workloads' 4096 rows and 0.66 MiB at 8192.
LANE_CACHE_BYTES = 8 * 1024 * 1024


def lane_cache() -> LRU:
    """One carrier's lane sets: an LRU of :data:`LANE_CACHE_BYTES`, each set
    charged the bytes of all its arrays."""
    return LRU(LANE_CACHE_BYTES, total_nbytes)


#: The served kernels, by the ``op`` name task dicts and frame headers carry.
SHARD_OPS = {
    "spmm": ShardOp(_cut_rows, _run_spmm, partial(csr_lanes, spmm_operand=True)),
    "sddmm": ShardOp(_cut_entries, _run_sddmm, csr_lanes, sddmm=True),
    "layer": ShardOp(_cut_rows, _run_layer, csr_lanes),
}
