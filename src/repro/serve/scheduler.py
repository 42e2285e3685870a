"""In-process shard executor for one served SpMM / SDDMM / fused layer.

One request is cut into window-aligned shards
(:func:`repro.kernels.engine.window_aligned_ranges`) and the shards run one
after another in the calling process: the operands are quantised once,
then for each range the op's entry in the engine's shard table
(:data:`repro.kernels.engine.SHARD_OPS`) slices the shard out of the op's
source (``op.source``: the CSR-built lanes for SpMM and the fused layer,
kept on the translation; the translation for SDDMM), runs it and
places its output rows into one zeroed output array — or, when one shard
covers the request, its rows are the output.
Running shard by shard, not as one call, is what bounds the fused layer's
per-shard SDDMM / softmax working set to the planner's shard size.

Multi-process execution is the cluster backend's
(:class:`repro.cluster.head.ClusterScheduler`: the same table on hosts).

Bit-exactness
-------------
The shard bodies work over whole windows — whole output rows from their
own entries, sampled values from their own two dense rows — so any shard
cut reproduces the single-process ``engine="batched"`` one-shot values
bit-for-bit (see the engine module docstring); the parity tests assert
exact equality.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.kernels.engine import SHARD_OPS, shard_params
from repro.precision.types import Precision, quantize


class ShardScheduler:
    """Window-aligned shard executor in the calling process.  Without a
    ``target_blocks`` shard size (no device budget) a request is one shard."""

    #: Shards that run side by side: one, in the calling process.
    workers = 1

    def __init__(self):
        #: Lifetime counters: requests run and shards executed.  Mutated
        #: under ``_stats_lock`` and read via :meth:`stats_snapshot` from
        #: any thread.
        self.stats = {"shards": 0, "requests": 0}
        self._stats_lock = threading.Lock()

    def close(self) -> None:
        """Nothing to release; kept for the scheduler interface."""

    def stats_snapshot(self) -> dict:
        """Consistent copy of the lifetime counters (safe from any thread)."""
        with self._stats_lock:
            return dict(self.stats)

    def _count(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self.stats[key] += n

    def _run(
        self,
        op_name: str,
        fmt: BlockedVectorFormat,
        operands: list[np.ndarray],
        params: dict,
        group: int | None = None,
        target_blocks: int | None = None,
        csr: CSRMatrix | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Quantise → plan → slice / run / place each shard for one table
        op (see :data:`repro.kernels.engine.SHARD_OPS`).  Returns the
        output plus the per-stage seconds summed across shards (all zero
        for single-stage ops).

        The operands arrive unquantised and are quantised here, once per
        request, each in its own dtype.  The shards slice the op's source
        (``op.source``: for SpMM and the fused layer, lanes of ``csr`` kept
        on ``fmt``).  A plan of one shard covers every output row from row
        0, so its rows are the output as they are.
        """
        op = SHARD_OPS[op_name]
        operands = [quantize(operand, params["precision"]) for operand in operands]
        ranges, out_shape = op.plan(fmt, operands, group, self.workers, target_blocks)
        self._count("requests")
        self._count("shards", len(ranges))
        stage_seconds = {"sddmm_s": 0.0, "edge_softmax_s": 0.0, "spmm_s": 0.0}
        out = None if len(ranges) == 1 else np.zeros(out_shape, dtype=np.float32)
        source = op.source(fmt, csr, params["precision"]) if ranges else None
        for r in ranges:
            sliced = op.slice(source, r, fmt.vector_size)
            outputs, timings = op.run(sliced, operands, params)
            if out is None:
                out = outputs[0][: out_shape[0]]
            else:
                op.place(out, sliced, outputs)
            for key, seconds in timings.items():
                stage_seconds[key] += seconds
        return out, stage_seconds

    def run_spmm(
        self,
        fmt: BlockedVectorFormat,
        b_q: np.ndarray,
        precision: Precision,
        target_blocks: int | None = None,
        csr: CSRMatrix | None = None,
    ) -> np.ndarray:
        """``A @ B`` shard by shard; bit-identical to one-shot.

        ``b_q`` arrives as the caller has it, unquantised: the scheduler
        quantises it to ``precision`` (an already quantised panel gives the
        same bits, since quantisation is idempotent).  ``target_blocks`` is
        the shard size target from the planner.  ``csr`` is the matrix
        ``fmt`` translates, whose arrays the shards slice (``fmt.to_csr()``
        when omitted: it drops only entries stored as zero, which SpMM
        drops too).
        """
        params = shard_params(precision)
        csr = fmt.to_csr() if csr is None else csr
        out, _ = self._run("spmm", fmt, [b_q], params, target_blocks=target_blocks, csr=csr)
        return out

    def run_sddmm(
        self,
        fmt: BlockedVectorFormat,
        a_q: np.ndarray,
        b_q: np.ndarray,
        precision: Precision,
        group: int,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        csr: CSRMatrix | None = None,
    ) -> np.ndarray:
        """Sampled dense×dense shard by shard (bit-identical).

        Returns the ``(num_nonzero_vectors, vector_size)`` value array in
        the layout of ``fmt.vector_values``.  The operands arrive
        unquantised and ``csr`` is taken, as for :meth:`run_spmm`; the
        shards slice the translation, whose layout the output has.
        """
        params = shard_params(precision, scale_by_mask=scale_by_mask)
        out, _ = self._run(
            "sddmm", fmt, [a_q, b_q], params, group=group, target_blocks=target_blocks, csr=csr
        )
        return out

    def run_layer(
        self,
        fmt: BlockedVectorFormat,
        indptr: np.ndarray,
        a_q: np.ndarray,
        b_q: np.ndarray,
        x_q: np.ndarray,
        precision: Precision,
        scale: float | None = None,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        csr: CSRMatrix | None = None,
    ) -> tuple[np.ndarray, dict]:
        """One fused layer (SDDMM → scale → softmax → SpMM) shard by shard
        — bit-identical to the three-call composition.

        ``indptr`` is the mask's CSR row layout (the softmax segments);
        ``a_q`` / ``b_q`` are the SDDMM operands and ``x_q`` the SpMM dense
        operand, unquantised as for :meth:`run_spmm`.  Shards are cut on
        the SpMM grouping's window offsets and all three stages run on the
        shard's CSR entries, sliced from ``csr`` (when omitted, the entries
        ``indptr`` lays out, read through the translation's entry map: a
        mask keeps the entries it stores as zero).

        Returns ``(rows, stage_seconds)`` where ``stage_seconds`` sums each
        stage's wall clock across shards
        (``{"sddmm_s", "edge_softmax_s", "spmm_s"}``).
        """
        params = shard_params(precision, scale, scale_by_mask)
        if csr is None:
            slot = fmt.partition.entry_slot
            columns = fmt.partition.vector_cols[slot // fmt.vector_size]
            csr = CSRMatrix(indptr, columns, fmt.vector_values.reshape(-1)[slot], fmt.shape)
        return self._run(
            "layer", fmt, [a_q, b_q, x_q], params, target_blocks=target_blocks, csr=csr
        )
