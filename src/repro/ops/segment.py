"""Sorted-segment reductions over indptr-style offsets (see package docstring).

Segments are given as **offsets** — an indptr-style array of length
``n_segments + 1``; segment ``s`` owns ``data[offsets[s]:offsets[s + 1]]``
— the layout of CSR rows and ME-BCRS windows.

All reductions run along axis 0 and preserve trailing dimensions, so the
same calls serve per-edge scalars ``(nnz,)`` and stacked rows ``(nnz, N)``.
"""

from __future__ import annotations

import numpy as np

#: Accumulation modes accepted by the reducing ops.
ACCUMULATE_MODES = ("native", "fp64")


def check_offsets(offsets: np.ndarray, total: int) -> np.ndarray:
    """Validate an indptr-style ``offsets`` array against ``total`` elements.

    Returns the validated int64 array.  ``offsets`` must start at 0, end at
    ``total`` and be non-decreasing — the invariants every CSR ``indptr``
    and window pointer in this codebase already satisfies.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        raise ValueError("offsets must be a 1-D array of length n_segments + 1")
    if offsets[0] != 0:
        raise ValueError("offsets must start at 0")
    if offsets[-1] != total:
        raise ValueError(
            f"offsets must end at the data length ({total}), got {int(offsets[-1])}"
        )
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be non-decreasing")
    return offsets


def segment_count(offsets: np.ndarray) -> np.ndarray:
    """Number of elements in each segment (``(n_segments,)`` int64)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        raise ValueError("offsets must be a 1-D array of length n_segments + 1")
    return np.diff(offsets)


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Segment id of every element (``(total,)`` int64) — the expand inverse.

    For a CSR ``indptr`` this is the classic "row of every nonzero" array;
    it is the broadcast companion of the reductions (``values[segment_ids]``
    expands one value per segment back to the element axis).
    """
    lengths = segment_count(offsets)
    return np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)


def _reduceat(
    ufunc: np.ufunc,
    data: np.ndarray,
    offsets: np.ndarray,
    fill,
    accumulate: str,
) -> np.ndarray:
    """Shared non-empty-segment ``reduceat`` + scatter skeleton."""
    if accumulate not in ACCUMULATE_MODES:
        raise ValueError(f"accumulate must be one of {ACCUMULATE_MODES}, got {accumulate!r}")
    data = np.asarray(data)
    offsets = check_offsets(offsets, data.shape[0])
    if accumulate == "fp64" and data.dtype != np.float64:
        data = data.astype(np.float64)
    lengths = np.diff(offsets)
    n_segments = lengths.shape[0]
    out = np.full((n_segments,) + data.shape[1:], fill, dtype=data.dtype)
    nonempty = lengths > 0
    if nonempty.any():
        # reduceat over the non-empty starts only: empty segments contribute
        # no elements, so consecutive non-empty starts delimit exactly the
        # right slices, and the repeated-index pitfall never arises.
        out[nonempty] = ufunc.reduceat(data, offsets[:-1][nonempty], axis=0)
    return out


def segment_sum(
    data: np.ndarray,
    offsets: np.ndarray,
    accumulate: str = "native",
) -> np.ndarray:
    """Per-segment sums along axis 0; empty segments sum to 0.

    ``accumulate="fp64"`` casts to float64 before reducing (and returns
    float64), bounding the association error of long segments far below
    FP32 resolution; ``"native"`` keeps the input dtype, in which case the
    association order is ``reduceat``'s (see the package docstring's
    numerical caveats).
    """
    return _reduceat(np.add, data, offsets, 0, accumulate)


def segment_max(
    data: np.ndarray,
    offsets: np.ndarray,
    empty_value: float = 0.0,
) -> np.ndarray:
    """Per-segment maxima along axis 0; empty segments yield ``empty_value``.

    Maxima involve no rounding, so the result is bit-identical to any
    per-segment loop regardless of association order.
    """
    return _reduceat(np.maximum, data, offsets, empty_value, "native")


def segment_min(
    data: np.ndarray,
    offsets: np.ndarray,
    empty_value: float = 0.0,
) -> np.ndarray:
    """Per-segment minima along axis 0; empty segments yield ``empty_value``.

    Like :func:`segment_max`, minima carry no round-off and agree
    bit-exactly with any per-segment loop.
    """
    return _reduceat(np.minimum, data, offsets, empty_value, "native")


def segment_mean(
    data: np.ndarray,
    offsets: np.ndarray,
    accumulate: str = "native",
) -> np.ndarray:
    """Per-segment means along axis 0; empty segments yield 0.

    The mean is the segment sum divided by the segment length; the division
    happens in the accumulation dtype (float64 under ``accumulate="fp64"``),
    so the only association sensitivity is the sum's (see
    :func:`segment_sum`).  Integer inputs are promoted to float64 — a mean
    is not generally representable in an integer dtype.
    """
    data = np.asarray(data)
    if not np.issubdtype(data.dtype, np.floating):
        data = data.astype(np.float64)
    sums = segment_sum(data, offsets, accumulate)
    lengths = segment_count(offsets)
    # Empty segments divide by 1 and keep the sum's 0 identity.
    denom = np.maximum(lengths, 1).astype(sums.dtype)
    return sums / denom.reshape((-1,) + (1,) * (sums.ndim - 1))


def segment_softmax(
    logits: np.ndarray,
    offsets: np.ndarray,
    out_dtype=np.float32,
) -> np.ndarray:
    """Per-segment softmax of a 1-D logits array (empty segments untouched).

    Matches the per-row reference computation of the GNN backends: the
    segment is shifted by its maximum and exponentiated in float64, the
    normaliser is a float64 segment sum, and the result is cast to
    ``out_dtype`` at the end — so the vectorized path agrees with the
    per-row float64 loop to well below FP32 round-off.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError("segment_softmax expects 1-D logits (one value per element)")
    offsets = check_offsets(offsets, logits.shape[0])
    lengths = np.diff(offsets)
    maxima = segment_max(logits, offsets, empty_value=0.0)
    shifted = logits - np.repeat(maxima, lengths)
    exps = np.exp(shifted)
    denom = segment_sum(exps, offsets)
    # Every non-empty segment has denom >= exp(0) = 1 for its max element;
    # the placeholder 1.0 on empty segments never divides a real element.
    denom = np.where(lengths > 0, denom, 1.0)
    return (exps / np.repeat(denom, lengths)).astype(out_dtype)


def segment_softmax_backward(
    softmax: np.ndarray,
    grad_out: np.ndarray,
    offsets: np.ndarray,
    out_dtype=np.float32,
) -> np.ndarray:
    """Gradient of :func:`segment_softmax` w.r.t. the logits.

    Implements ``s * (g - <g, s>_segment)`` with the inner product
    accumulated in float64 (the per-row oracle accumulates it in FP32, so
    the two agree to FP32 round-off — the vectorized path is the more
    accurate of the two).
    """
    softmax = np.asarray(softmax)
    grad_out = np.asarray(grad_out)
    if softmax.shape != grad_out.shape or softmax.ndim != 1:
        raise ValueError("softmax and grad_out must be equal-shape 1-D arrays")
    offsets = check_offsets(offsets, softmax.shape[0])
    lengths = np.diff(offsets)
    inner = segment_sum(
        softmax.astype(np.float64) * grad_out.astype(np.float64), offsets
    )
    return (softmax * (grad_out - np.repeat(inner, lengths))).astype(out_dtype)
