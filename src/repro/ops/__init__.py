"""Vectorized segment operations shared by every segment-shaped hot path.

Most of the per-element work in this codebase reduces to *segment
operations*: an array of values is partitioned into contiguous runs
(CSR rows, ME-BCRS row windows, TC-block ranges) and each run is reduced,
normalised or broadcast independently.  DGL exposes the same primitives as
first-class ``segment_reduce`` / ``edge_softmax`` kernels shared by every
sparse operator; this package plays that role here, replacing the per-row
Python loops that used to dominate a GNN training epoch.

The reduceat trick
------------------
All reductions are built on ``np.ufunc.reduceat`` over *sorted* segment
layouts.  Given an indptr-style ``offsets`` array (length ``n_segments + 1``,
``offsets[s]:offsets[s + 1]`` indexes segment ``s``), one call

    ``np.add.reduceat(data, starts, axis=0)``

computes every segment sum in C, where ``starts`` are the start offsets of
the *non-empty* segments only.  Filtering to non-empty segments sidesteps
the classic ``reduceat`` pitfall: a repeated index (what an empty segment
would produce) makes ``reduceat`` return ``data[start]`` instead of the
empty-sum identity.  The results are scattered back to the full segment
axis, so empty segments come out as the reduction's identity (0 for sums,
a caller-chosen fill for maxima) — exactly what the per-row loops produce
for isolated rows and empty row windows.

Numerical-association caveats
-----------------------------
Floating-point addition is not associative, and ``reduceat``'s association
order is an implementation detail (NumPy uses SIMD-chunked partial sums), so
segment sums can differ from a per-element Python loop — or from
``segment.sum()``'s pairwise order — in the last units of precision.
Concretely:

* on *integer-valued* float data every partial sum is exactly representable,
  so any association gives bit-identical results (the regime the property
  tests pin down exactly);
* on general float data the association error is bounded by
  ``O(len(segment) · eps)`` of the accumulation dtype;
* :func:`~repro.ops.segment.segment_softmax` and the float64-accumulating
  reductions (``accumulate="fp64"``) push that error to float64 scale —
  far below FP32 resolution — which is why the GNN backends' vectorized
  edge softmax agrees with the per-row reference oracle to FP32 round-off;
* max-based operations carry no round-off at all and agree bit-exactly.

The SpMM and SDDMM engines do not reduce through this package: the batched
SpMM accumulates row-wise inside the product (:mod:`repro.kernels.engine`),
in a fixed per-row order, which is what makes served results bit-identical
under sharding, chunking and operand coalescing.  The segment ops serve the
edge softmax and degree normalisation, where the tolerances above apply,
and the formats' lane view (:func:`segment_ids`).
"""

from repro.ops.segment import (
    check_offsets,
    segment_count,
    segment_ids,
    segment_max,
    segment_softmax,
    segment_softmax_backward,
    segment_sum,
)

__all__ = [
    "check_offsets",
    "segment_count",
    "segment_ids",
    "segment_max",
    "segment_softmax",
    "segment_softmax_backward",
    "segment_sum",
]
