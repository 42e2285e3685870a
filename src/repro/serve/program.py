"""The attention layer's result type and its three-call helpers.

A GAT/AGNN-style attention layer is one fixed pipeline over one sparse
pattern — SDDMM (per-edge logits), an optional float32 ``scale``, a per-row
edge softmax and an SpMM whose values are the attention weights.
``Server.submit_layer`` serves it as one request that runs fused per shard
(:func:`repro.kernels.engine.layer_shard_rows`); its two settings,
``scale`` and ``scale_by_mask``, are checked by
:func:`repro.kernels.engine.shard_params` at submit and again wherever a
shard runs.  The same layer as three calls — ``submit_sddmm``, a
client-side softmax, ``submit_spmm`` over the attention matrix — is the
reference the fused pass is bit-identical to, and what the fused pass
saves is measured against it:

* :func:`gather_edge_values` / :func:`attention_csr` — SDDMM's
  nonzero-vector output → CSR edge order → a values-only CSR for the SpMM;
* :func:`composed_intermediate_bytes` — what the fused layer keeps off the
  carrier versus the three calls;
* :class:`LayerResult` — the result of ``submit_layer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.windows import WindowPartition


def gather_edge_values(
    partition: WindowPartition, indptr: np.ndarray, vector_values: np.ndarray
) -> np.ndarray:
    """SDDMM output (nonzero-vector layout) → CSR edge order.

    A gather through the translation's entry map
    (``vector_values.reshape(-1)[partition.entry_slot]``), so explicit zeros
    survive and the entry order is the CSR's — unlike
    ``BlockedVectorFormat.to_csr``, which drops stored zeros.  ``indptr`` is
    the CSR's row layout, checked against the partition's ``nnz``.  Returns
    the ``(nnz,)`` float32 per-edge values.
    """
    if int(indptr[-1]) != partition.nnz:
        raise ValueError(f"indptr holds {int(indptr[-1])} entries, the partition {partition.nnz}")
    flat = np.asarray(vector_values).reshape(-1)
    return np.asarray(flat[partition.entry_slot], dtype=np.float32)


def attention_csr(csr: CSRMatrix, data: np.ndarray) -> CSRMatrix:
    """A CSR with ``csr``'s pattern and ``data`` as values (attention matrix).

    The three-call layer feeds this to its SpMM.  It is
    ``csr.with_values``: the index arrays and the structure key are
    ``csr``'s own, so the attention matrix reuses the mask's cached window
    partition and all it memoises (block index, cost counters, serving
    plan), and on the cluster only its ``data``
    crosses the wire — its content key differs from the mask's (the values
    differ per layer evaluation), its structure key does not.
    """
    data = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
    if data.shape != (csr.nnz,):
        raise ValueError(f"data must have shape ({csr.nnz},), got {data.shape}")
    return csr.with_values(data)


def composed_intermediate_bytes(fmt, csr: CSRMatrix) -> int:
    """Bytes a fused layer keeps off the carrier versus the three calls.

    The three calls pull the SDDMM intermediate back (float32 values in
    ``fmt``'s vector layout) and push the :func:`attention_csr` values
    out again — never pinnable, they change every evaluation.  The index
    arrays are the mask's, already pinned under its structure key.
    """
    return int(fmt.vector_values.shape[0]) * fmt.vector_size * 4 + int(csr.nnz) * 4


@dataclass
class LayerResult:
    """Result of a fused-layer request: the layer's dense output rows."""

    #: Dense layer output ``spmm(softmax(scale · sddmm(a, b)), x)`` (float32).
    values: np.ndarray
    #: Useful FLOPs of the whole pipeline (SDDMM + softmax + SpMM).
    useful_flops: int
    #: Per-stage wall clock, backend, coalescing info.
    meta: dict = field(default_factory=dict)
